"""Deterministic benchmark corpus generation and the benchmark runner.

The generator builds a bibliographic world of expression entities (type,
title, citations, identifier link) and identifier entities (type, scheme,
literal value), each with a change history: snapshot counts drawn from a
truncated normal distribution, change kinds drawn from a configurable
mix, timestamps following a daily cadence with seeded jitter.  Every
update is tight against the state it modifies (it never deletes an
absent quad or inserts a present one), so the stored delta equals the
true difference between consecutive versions.

Next to the data the generator keeps a ledger: every version of every
entity, with snapshot metadata, written independently of the engine's
reconstruction code path.  The ledger is the ground truth the benchmark
gates on and the test suite checks against, and generation replays every
history forward to prove the two agree before anything is written.

The benchmark itself times ten workload classes: materialisation of all
or one version, cross-version, single-version, cross-delta and
single-delta structured queries, each in a known-subject shape (three
joined patterns anchored on one entity) and an unknown-subject shape
(one isolated pattern on the identifier scheme).
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .delta_query import execute_delta_query
from .errors import SpecError
from .materializer import TimeInterval, UNBOUNDED, current_graph, materialize_all, materialize_at
from .provenance import (
    DCTERMS_DESCRIPTION,
    GENERATED_AT_TIME,
    HAD_PRIMARY_SOURCE,
    INVALIDATED_AT_TIME,
    OCO_HAS_UPDATE_QUERY,
    PROV_ENTITY,
    SPECIALIZATION_OF,
    WAS_ATTRIBUTED_TO,
    WAS_DERIVED_FROM,
    format_timestamp,
    parse_timestamp,
    render_update,
)
from .rdf_model import (
    RDF_TYPE,
    XSD_DATETIME,
    GraphSet,
    Quad,
    Term,
    graph_diff,
    iri,
    literal,
    parse_nquads,
    quad,
    serialize,
)
from .sources import Context, memory_context
from .sparql_engine import evaluate, parse_select
from .version_query import execute_version_query

FABIO_EXPRESSION = "http://purl.org/spar/fabio/Expression"
CITO_CITES = "http://purl.org/spar/cito/cites"
DCTERMS_TITLE = "http://purl.org/dc/terms/title"
DATACITE_HAS_IDENTIFIER = "http://purl.org/spar/datacite/hasIdentifier"
DATACITE_IDENTIFIER = "http://purl.org/spar/datacite/Identifier"
DATACITE_USES_SCHEME = "http://purl.org/spar/datacite/usesIdentifierScheme"
DATACITE_DOI = "http://purl.org/spar/datacite/doi"
DATACITE_ORCID = "http://purl.org/spar/datacite/orcid"
DATACITE_ISSN = "http://purl.org/spar/datacite/issn"
LITERAL_HAS_VALUE = "http://www.essepuntato.it/2010/06/literalreification/hasLiteralValue"

CHANGE_KINDS = ("literal-edit", "triple-add", "triple-remove", "entity-delete")

# every generated IRI starts with BASE_IRI; histories start at START
BASE_IRI = "https://chrono.example/"
START = parse_timestamp("2020-01-01T08:00:00")


def _default_mix() -> dict[str, float]:
    return {
        "literal-edit": 0.55,
        "triple-add": 0.20,
        "triple-remove": 0.15,
        "entity-delete": 0.10,
    }


@dataclass(frozen=True)
class GenSpec:
    """Everything the generator needs; equal specs generate equal bytes."""

    seed: int = 42
    n_entities: int = 1000
    snapshot_mean: float = 20.0
    snapshot_stdev: float = 8.0
    snapshot_min: int = 2
    snapshot_max: int = 35
    change_mix: Mapping[str, float] = field(default_factory=_default_mix)

    def validate(self) -> None:
        if self.n_entities < 1:
            raise SpecError("n_entities must be at least 1")
        if not (1 <= self.snapshot_min <= self.snapshot_max):
            raise SpecError("need 1 <= snapshot_min <= snapshot_max")
        if self.snapshot_stdev <= 0:
            raise SpecError("snapshot_stdev must be positive")
        if not (self.snapshot_min <= self.snapshot_mean <= self.snapshot_max):
            raise SpecError("snapshot_mean must lie between snapshot_min and snapshot_max")
        unknown = set(self.change_mix) - set(CHANGE_KINDS)
        if unknown:
            raise SpecError(f"unknown change kinds: {', '.join(sorted(unknown))}")
        if any(v < 0 for v in self.change_mix.values()):
            raise SpecError("change mix weights must be non-negative")
        if sum(self.change_mix.values()) <= 0:
            raise SpecError("change mix weights must not all be zero")


def _truncated_normal_loc(target_mean: float, stdev: float, lo: float, hi: float) -> float:
    """The location parameter whose truncation to [lo, hi] has the target mean.

    Clipping a normal at the bounds drags the mean toward the middle of
    the interval, so sampling around target_mean directly would miss it;
    this solves for the compensated centre by bisection on the closed
    form of the truncated normal mean.
    """

    def pdf(x: float) -> float:
        return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

    def cdf(x: float) -> float:
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    def truncated_mean(loc: float) -> float:
        a = (lo - loc) / stdev
        b = (hi - loc) / stdev
        z = cdf(b) - cdf(a)
        if z <= 1e-12:
            return lo if loc < lo else hi
        return loc + stdev * (pdf(a) - pdf(b)) / z

    low, high = lo - 6 * stdev, hi + 6 * stdev
    for _ in range(80):
        mid = (low + high) / 2
        if truncated_mean(mid) < target_mean:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def _sample_count(rng: random.Random, loc: float, spec: GenSpec) -> int:
    while True:
        x = rng.gauss(loc, spec.snapshot_stdev)
        if spec.snapshot_min <= x <= spec.snapshot_max:
            return max(spec.snapshot_min, min(spec.snapshot_max, round(x)))


@dataclass(frozen=True)
class SnapshotTruth:
    """Ledger-side record of one snapshot, kept apart from the engine."""

    id: str
    time: datetime
    kind: str  # created, modified, or deleted
    description: str
    agent: str
    added: GraphSet
    removed: GraphSet


@dataclass
class EntityTruth:
    entity: str
    times: list[datetime]
    versions: list[GraphSet]
    snapshots: list[SnapshotTruth]

    def version_at(self, when: datetime) -> GraphSet | None:
        """Latest stored version at `when`; None before the entity existed."""
        found = None
        for t, version in zip(self.times, self.versions):
            if t <= when:
                found = version
            else:
                break
        return found


class OracleLedger:
    """The generator's own record of every version of every entity."""

    def __init__(self, entities: dict[str, EntityTruth]):
        self.entities = entities

    def change_times(self) -> list[datetime]:
        times = {t for truth in self.entities.values() for t in truth.times}
        return sorted(times)

    def dataset_at(
        self, when: datetime, restrict: Iterable[str] | None = None
    ) -> GraphSet:
        """The union of entity states at `when`, optionally restricted."""
        names = self.entities.keys() if restrict is None else restrict
        merged: set[Quad] = set()
        for name in names:
            truth = self.entities.get(name)
            if truth is None:
                continue
            version = truth.version_at(when)
            if version:
                merged |= version
        return frozenset(merged)

    def final_state(self) -> GraphSet:
        merged: set[Quad] = set()
        for truth in self.entities.values():
            merged |= truth.versions[-1]
        return frozenset(merged)

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        index: dict = {"entities": {}}
        for i, entity in enumerate(sorted(self.entities)):
            truth = self.entities[entity]
            versions = []
            for k, (t, version) in enumerate(zip(truth.times, truth.versions)):
                filename = f"{i:05d}-v{k:03d}.nq"
                (directory / filename).write_text(serialize(version), encoding="utf-8")
                versions.append({"time": format_timestamp(t), "file": filename})
            snapshots = [
                {
                    "id": s.id,
                    "time": format_timestamp(s.time),
                    "kind": s.kind,
                    "description": s.description,
                    "agent": s.agent,
                }
                for s in truth.snapshots
            ]
            index["entities"][entity] = {"versions": versions, "snapshots": snapshots}
        (directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, directory: str | Path) -> "OracleLedger":
        directory = Path(directory)
        index = json.loads((directory / "index.json").read_text(encoding="utf-8"))
        entities: dict[str, EntityTruth] = {}
        for entity, info in index["entities"].items():
            times: list[datetime] = []
            versions: list[GraphSet] = []
            for row in info["versions"]:
                times.append(parse_timestamp(row["time"]))
                versions.append(
                    parse_nquads((directory / row["file"]).read_text(encoding="utf-8"))
                )
            snapshots = []
            for k, row in enumerate(info["snapshots"]):
                prev = versions[k - 1] if k else frozenset()
                added, removed = graph_diff(prev, versions[k])
                snapshots.append(
                    SnapshotTruth(
                        id=row["id"],
                        time=parse_timestamp(row["time"]),
                        kind=row["kind"],
                        description=row["description"],
                        agent=row["agent"],
                        added=added,
                        removed=removed,
                    )
                )
            entities[entity] = EntityTruth(entity, times, versions, snapshots)
        return cls(entities)


@dataclass
class GeneratedWorld:
    spec: GenSpec
    data: GraphSet
    provenance: GraphSet
    ledger: OracleLedger

    def save(self, directory: str | Path, include_ledger: bool = True) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "data.nq").write_text(serialize(self.data), encoding="utf-8")
        (directory / "provenance.nq").write_text(serialize(self.provenance), encoding="utf-8")
        if include_ledger:
            self.ledger.save(directory / "ledger")

    def context(self, **kwargs) -> Context:
        return memory_context(self.data, self.provenance, **kwargs)


def _agents() -> list[str]:
    return [f"https://orcid.org/0000-0002-1825-000{d}" for d in range(5)]


class _EntityBuilder:
    """Walks one entity's history forward, accumulating truth and provenance."""

    def __init__(self, world: "_WorldBuilder", entity: str, data_graph: str):
        self.world = world
        self.entity = entity
        self.data_graph = data_graph
        self.state: set[Quad] = set()
        self.times: list[datetime] = []
        self.versions: list[GraphSet] = []
        self.snapshots: list[SnapshotTruth] = []
        self.prov: list[Quad] = []

    def quad(self, p: str, o: Term) -> Quad:
        return quad(iri(self.entity), iri(p), o, self.data_graph)

    def commit(
        self,
        when: datetime,
        kind: str,
        added: set[Quad],
        removed: set[Quad],
        agent: str,
        primary_source: str | None = None,
    ) -> None:
        k = len(self.versions)
        snapshot_id = f"{self.entity}/prov/se/{k + 1}"
        verb = {"created": "created", "deleted": "deleted"}.get(kind, "modified")
        description = f"The entity '{self.entity}' has been {verb}."
        self.state -= removed
        self.state |= added
        self.times.append(when)
        self.versions.append(frozenset(self.state))
        self.snapshots.append(
            SnapshotTruth(
                id=snapshot_id,
                time=when,
                kind=kind,
                description=description,
                agent=agent,
                added=frozenset(added),
                removed=frozenset(removed),
            )
        )
        g = self.world.prov_graph
        se = iri(snapshot_id)
        add = self.prov.append
        add(quad(se, iri(RDF_TYPE), iri(PROV_ENTITY), g))
        add(quad(se, iri(SPECIALIZATION_OF), iri(self.entity), g))
        add(quad(se, iri(GENERATED_AT_TIME),
                 literal(format_timestamp(when), XSD_DATETIME), g))
        add(quad(se, iri(DCTERMS_DESCRIPTION), literal(description), g))
        add(quad(se, iri(WAS_ATTRIBUTED_TO), iri(agent), g))
        if k == 0:
            if primary_source:
                add(quad(se, iri(HAD_PRIMARY_SOURCE), iri(primary_source), g))
        else:
            previous = self.snapshots[k - 1]
            add(quad(se, iri(WAS_DERIVED_FROM), iri(previous.id), g))
            update_text = render_update(sorted(removed, key=_quad_key),
                                        sorted(added, key=_quad_key))
            add(quad(se, iri(OCO_HAS_UPDATE_QUERY), literal(update_text), g))
            # close the predecessor now that its end is known
            self.prov.append(
                quad(iri(previous.id), iri(INVALIDATED_AT_TIME),
                     literal(format_timestamp(when), XSD_DATETIME), g)
            )
        if kind == "deleted":
            add(quad(se, iri(INVALIDATED_AT_TIME),
                     literal(format_timestamp(when), XSD_DATETIME), g))


def _quad_key(q: Quad) -> str:
    return f"{q.subject.n3()} {q.predicate.n3()} {q.object.n3()} {q.graph or ''}"


class _WorldBuilder:
    def __init__(self, spec: GenSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.prov_graph = BASE_IRI + "prov/"
        self.agents = _agents()
        n_br = (spec.n_entities + 1) // 2
        n_id = spec.n_entities // 2
        self.br_names = [f"{BASE_IRI}br/{k}" for k in range(n_br)]
        self.id_names = [f"{BASE_IRI}id/{k}" for k in range(n_id)]

    def pick_kind(self, weights: Mapping[str, float], choices: Sequence[str]) -> str:
        total = sum(weights[c] for c in choices)
        if total <= 0:
            return "literal-edit"
        roll = self.rng.random() * total
        acc = 0.0
        for c in choices:
            acc += weights[c]
            if roll <= acc:
                return c
        return choices[-1]

    def build(self) -> GeneratedWorld:
        spec = self.spec
        loc = _truncated_normal_loc(
            spec.snapshot_mean, spec.snapshot_stdev, spec.snapshot_min, spec.snapshot_max
        )
        entities: dict[str, EntityTruth] = {}
        provenance: set[Quad] = set()
        ordered: list[tuple[str, str]] = []
        for k in range(spec.n_entities):
            if k % 2 == 0:
                ordered.append(("br", self.br_names[k // 2]))
            else:
                ordered.append(("id", self.id_names[k // 2]))

        for j, (kind, entity) in enumerate(ordered):
            builder = self._build_entity(j, kind, entity, loc)
            entities[entity] = EntityTruth(
                entity, builder.times, builder.versions, builder.snapshots
            )
            provenance.update(builder.prov)

        ledger = OracleLedger(entities)
        data = ledger.final_state()
        world = GeneratedWorld(
            spec=spec, data=data, provenance=frozenset(provenance), ledger=ledger
        )
        _replay_check(world)
        return world

    def _build_entity(self, j: int, kind: str, entity: str, loc: float) -> _EntityBuilder:
        spec, rng = self.spec, self.rng
        graph = BASE_IRI + ("br/" if kind == "br" else "id/")
        b = _EntityBuilder(self, entity, graph)
        count = _sample_count(rng, loc, spec)
        start_day = rng.randint(0, 59)
        times = []
        for k in range(count):
            jitter = rng.randint(0, 6 * 3600)
            times.append(START + timedelta(days=start_day + k, seconds=jitter))

        creation: set[Quad] = set()
        if kind == "br":
            creation.add(b.quad(RDF_TYPE, iri(FABIO_EXPRESSION)))
            creation.add(b.quad(DCTERMS_TITLE, literal(f"Title {j} rev 0")))
            for target in self._pick_citations(entity):
                creation.add(b.quad(CITO_CITES, iri(target)))
            paired = j // 2
            if paired < len(self.id_names):
                creation.add(b.quad(DATACITE_HAS_IDENTIFIER, iri(self.id_names[paired])))
        else:
            creation.add(b.quad(RDF_TYPE, iri(DATACITE_IDENTIFIER)))
            creation.add(b.quad(DATACITE_USES_SCHEME, iri(self._pick_scheme())))
            creation.add(b.quad(LITERAL_HAS_VALUE, literal(self._literal_value(j, 0))))
        source = f"https://api.crossref.example/works/10.{1100 + j}"
        b.commit(times[0], "created", creation, set(), self._pick_agent(), source)

        weights = dict(self.spec.change_mix)
        deletes_at_end = rng.random() < weights.get("entity-delete", 0.0)
        non_delete = [c for c in ("literal-edit", "triple-add", "triple-remove")
                      if weights.get(c, 0.0) > 0] or ["literal-edit"]
        full_weights = {c: weights.get(c, 0.0) for c in CHANGE_KINDS}

        for k in range(1, count):
            terminal = k == count - 1
            if terminal and deletes_at_end:
                removed = set(b.state)
                b.commit(times[k], "deleted", set(), removed, self._pick_agent())
                continue
            change = self.pick_kind(full_weights, non_delete)
            added, removed = self._apply_change(b, j, kind, change, k)
            b.commit(times[k], "modified", added, removed, self._pick_agent())
        return b

    def _pick_agent(self) -> str:
        return self.agents[self.rng.randrange(len(self.agents))]

    def _pick_scheme(self) -> str:
        roll = self.rng.random()
        if roll < 0.70:
            return DATACITE_DOI
        if roll < 0.85:
            return DATACITE_ORCID
        return DATACITE_ISSN

    def _pick_citations(self, entity: str) -> list[str]:
        count = self.rng.randint(0, 4)
        targets = []
        for _ in range(count):
            target = self.br_names[self.rng.randrange(len(self.br_names))]
            if target != entity and target not in targets:
                targets.append(target)
        return targets

    def _literal_value(self, j: int, revision: int) -> str:
        dot = "." if self.rng.random() < 0.15 else ""
        return f"10.{1000 + j}/item.{j}.r{revision}{dot}"

    def _apply_change(
        self, b: _EntityBuilder, j: int, kind: str, change: str, revision: int
    ) -> tuple[set[Quad], set[Quad]]:
        """One tight change; falls back to a literal edit when the drawn
        kind does not apply to the current state."""
        rng = self.rng
        if kind == "br" and change == "triple-add":
            cited = {q.object.value for q in b.state if q.predicate.value == CITO_CITES}
            candidates = [t for t in self.br_names if t != b.entity and t not in cited]
            if candidates:
                target = candidates[rng.randrange(len(candidates))]
                return {b.quad(CITO_CITES, iri(target))}, set()
            change = "triple-remove"
        if kind == "br" and change == "triple-remove":
            cites = sorted(
                (q for q in b.state if q.predicate.value == CITO_CITES), key=_quad_key
            )
            if cites:
                return set(), {cites[rng.randrange(len(cites))]}
            change = "literal-edit"
        if kind == "id" and change in ("triple-add", "triple-remove"):
            change = "literal-edit"

        predicate = DCTERMS_TITLE if kind == "br" else LITERAL_HAS_VALUE
        current = sorted(
            (q for q in b.state if q.predicate.value == predicate), key=_quad_key
        )
        if kind == "br":
            new_value = literal(f"Title {j} rev {revision}")
        else:
            new_value = literal(self._literal_value(j, revision))
        added = {b.quad(predicate, new_value)}
        removed = set(current[:1])
        if removed and next(iter(removed)).object == new_value:
            removed = set()
            added = set()
            # identical rewrite would make an empty update; nudge the value
            if kind == "br":
                added = {b.quad(predicate, literal(f"Title {j} rev {revision}b"))}
            else:
                added = {b.quad(predicate, literal(self._literal_value(j, revision) + "b"))}
            removed = set(current[:1])
        return added, removed


def generate(spec: GenSpec = GenSpec()) -> GeneratedWorld:
    """Generate a world from the spec; equal specs give equal bytes."""
    spec.validate()
    return _WorldBuilder(spec).build()


def _replay_check(world: GeneratedWorld) -> None:
    """Replay every history forward through the engine-independent truth.

    Applies each stored update string to the previous ledger version and
    demands the stored next version, and demands that the final version
    equals the live data.  Runs at generation time so a broken generator
    can never hand out a corpus.
    """
    from .sparql_engine import parse_update

    updates = {
        q.subject.value: q.object.value
        for q in world.provenance
        if q.subject.is_iri and q.predicate.value == OCO_HAS_UPDATE_QUERY
    }
    for entity, truth in world.ledger.entities.items():
        state: GraphSet = frozenset()
        for k, snap in enumerate(truth.snapshots):
            if k == 0:
                state = frozenset(snap.added)
            else:
                text = updates.get(snap.id)
                if text is None:
                    raise SpecError(f"generator lost the update of {snap.id}")
                delta = parse_update(text)
                state = frozenset((state - set(delta.deletes)) | set(delta.inserts))
            if state != truth.versions[k]:
                raise SpecError(f"replay mismatch for {entity} at version {k}")
        live = frozenset(
            q for q in world.data if q.subject.is_iri and q.subject.value == entity
        )
        if live != truth.versions[-1]:
            raise SpecError(f"live state of {entity} disagrees with its last version")


# -- query corpus -----------------------------------------------------


def known_subject_query(entity: str) -> str:
    """Three joined patterns anchored on one entity, one of them optional."""
    return (
        "SELECT DISTINCT ?br ?id ?value\n"
        "WHERE {\n"
        f"  <{entity}> <{CITO_CITES}> ?br .\n"
        f"  ?br <{DATACITE_HAS_IDENTIFIER}> ?id .\n"
        f"  OPTIONAL {{ ?id <{LITERAL_HAS_VALUE}> ?value . }}\n"
        "}"
    )


def scheme_query(scheme_iri: str = DATACITE_ORCID) -> str:
    """One isolated pattern: which subjects use the given identifier scheme."""
    return (
        "SELECT DISTINCT ?s\n"
        "WHERE {\n"
        f"  ?s <{DATACITE_USES_SCHEME}> <{scheme_iri}> .\n"
        "}"
    )


def value_regex_query(pattern: str = "\\.$") -> str:
    """Isolated pattern plus a regex filter over the literal values."""
    return (
        "SELECT ?id ?literal\n"
        "WHERE {\n"
        f"  ?id <{LITERAL_HAS_VALUE}> ?literal .\n"
        f'  FILTER REGEX(?literal, "{pattern}")\n'
        "}"
    )


# -- benchmark runner -------------------------------------------------


@dataclass
class BenchRow:
    workload: str
    subject_mode: str
    repetitions: int
    mean_s: float
    stdev_s: float
    snapshots_involved: float
    entities_involved: float
    overhead_basis: str
    overhead_s: float
    baseline_mean_s: float
    baseline_stdev_s: float
    peak_memory_mb: float

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "subject_mode": self.subject_mode,
            "repetitions": self.repetitions,
            "mean_s": round(self.mean_s, 6),
            "stdev_s": round(self.stdev_s, 6),
            "snapshots_involved": round(self.snapshots_involved, 2),
            "entities_involved": round(self.entities_involved, 2),
            "overhead_basis": self.overhead_basis,
            "overhead_s": round(self.overhead_s, 6),
            "baseline_mean_s": round(self.baseline_mean_s, 6),
            "baseline_stdev_s": round(self.baseline_stdev_s, 6),
            "peak_memory_mb": round(self.peak_memory_mb, 3),
        }


@dataclass
class BenchReport:
    rows: list[BenchRow]
    metadata: dict

    def to_csv(self, path: str | Path) -> None:
        fields = list(self.rows[0].as_dict().keys())
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=fields)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row.as_dict())

    def to_json(self, path: str | Path) -> None:
        payload = {"metadata": self.metadata, "rows": [r.as_dict() for r in self.rows]}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _mean_stdev(samples: Sequence[float]) -> tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    if len(samples) == 1:
        return samples[0], 0.0
    return statistics.fmean(samples), statistics.stdev(samples)


def _gate_cross_version(world: GeneratedWorld, query_text: str) -> None:
    """Refuse to benchmark an engine that answers differently from the ledger."""
    ctx = world.context()
    outcome = execute_version_query(query_text, ctx)
    parsed = parse_select(query_text)
    for key, got in outcome.results.items():
        when = parse_timestamp(key)
        expected = evaluate(
            parsed, world.ledger.dataset_at(when, restrict=outcome.relevant_entities)
        )
        if got != expected:
            raise SpecError(f"benchmark gate: query answers diverge at {key}")


def bench_run(
    world: GeneratedWorld,
    repetitions: int = 3,
    subjects: int = 3,
) -> BenchReport:
    """Gate the engine on the ledger, then time the ten workload classes."""
    rng = random.Random(world.spec.seed + 1)
    ledger = world.ledger
    change_times = ledger.change_times()
    mid_time = change_times[len(change_times) // 2]
    single_interval = TimeInterval(mid_time, mid_time)

    def has_cites(entity: str) -> bool:
        truth = ledger.entities[entity]
        return any(
            q.predicate.value == CITO_CITES for v in truth.versions for q in v
        )

    candidates = [
        e for e in sorted(ledger.entities)
        if "/br/" in e and len(ledger.entities[e].snapshots) >= 3 and has_cites(e)
    ]
    if not candidates:
        candidates = [e for e in sorted(ledger.entities) if "/br/" in e]
    picked = sorted(rng.sample(candidates, min(subjects, len(candidates))))

    sp_queries = {e: known_subject_query(e) for e in picked}
    po_query = scheme_query(DATACITE_ORCID)

    _gate_cross_version(world, sp_queries[picked[0]])
    _gate_cross_version(world, po_query)

    def fresh() -> Context:
        return world.context()

    def run_vm_all(ctx: Context) -> tuple[float, float]:
        snapshots = 0.0
        for e in picked:
            versions = materialize_all(e, ctx.entity_quads(e), ctx.history(e))
            snapshots += len(versions)
        return snapshots, float(len(picked))

    def run_vm_one(ctx: Context) -> tuple[float, float]:
        snapshots = 0.0
        for e in picked:
            history = ctx.history(e)
            snaps = history.snapshots
            target = snaps[len(snaps) // 2].generated_at
            materialize_at(e, target, ctx.entity_quads(e), history)
            snapshots += len(snaps) - len(snaps) // 2
        return snapshots, float(len(picked))

    def run_queries(query_texts: Sequence[str], execute: Callable, **options) -> Callable:
        def inner(ctx: Context) -> tuple[float, float]:
            snapshots = entities = 0.0
            for text in query_texts:
                outcome = execute(text, ctx, **options)
                # a delta outcome reports entities only
                snapshots += getattr(outcome, "snapshots_involved", 0)
                entities += len(outcome.relevant_entities)
            return snapshots, entities
        return inner

    def baseline_queries(query_texts: Sequence[str]) -> Callable:
        parsed = [parse_select(t) for t in query_texts]
        def inner(ctx: Context) -> None:
            for p in parsed:
                ctx.evaluate_current(p)
        return inner

    def baseline_current(ctx: Context) -> None:
        for e in picked:
            current_graph(e, ctx.entity_quads(e))

    classes: list[tuple[str, str, Callable, Callable]] = [
        ("materialize-all-versions", "known-subject", run_vm_all, baseline_current),
        ("materialize-one-version", "known-subject", run_vm_one, baseline_current),
    ]
    version, delta = execute_version_query, execute_delta_query
    for subject_mode, texts in (
        ("known-subject", list(sp_queries.values())),
        ("unknown-subject", [po_query]),
    ):
        classes += [
            (workload, subject_mode, runner, baseline_queries(texts))
            for workload, runner in (
                ("cross-version-query", run_queries(texts, version)),
                ("single-version-query", run_queries(texts, version, at=mid_time)),
                ("cross-delta-query", run_queries(texts, delta)),
                ("single-delta-query", run_queries(texts, delta, interval=single_interval)),
            )
        ]

    rows: list[BenchRow] = []
    for workload, subject_mode, runner, baseline in classes:
        samples: list[float] = []
        snapshots_counts: list[float] = []
        entity_counts: list[float] = []
        for _ in range(repetitions):
            ctx = fresh()
            started = time.perf_counter()
            snapshots, entities = runner(ctx)
            samples.append(time.perf_counter() - started)
            snapshots_counts.append(snapshots)
            entity_counts.append(entities)
        baseline_samples: list[float] = []
        for _ in range(repetitions):
            ctx = fresh()
            started = time.perf_counter()
            baseline(ctx)
            baseline_samples.append(time.perf_counter() - started)
        tracemalloc.start()
        runner(fresh())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        mean_s, stdev_s = _mean_stdev(samples)
        baseline_mean, baseline_stdev = _mean_stdev(baseline_samples)
        snapshots_involved = statistics.fmean(snapshots_counts)
        entities_involved = statistics.fmean(entity_counts)
        if "delta" in workload:
            basis = "entities"
            divisor = entities_involved
        else:
            basis = "snapshots"
            divisor = snapshots_involved
        overhead = mean_s / divisor if divisor else mean_s
        rows.append(
            BenchRow(
                workload=workload,
                subject_mode=subject_mode,
                repetitions=repetitions,
                mean_s=mean_s,
                stdev_s=stdev_s,
                snapshots_involved=snapshots_involved,
                entities_involved=entities_involved,
                overhead_basis=basis,
                overhead_s=overhead,
                baseline_mean_s=baseline_mean,
                baseline_stdev_s=baseline_stdev,
                peak_memory_mb=peak / (1024 * 1024),
            )
        )

    metadata = {
        "seed": world.spec.seed,
        "n_entities": world.spec.n_entities,
        "repetitions": repetitions,
        "subjects": picked,
        "snapshot_mean": world.spec.snapshot_mean,
        "snapshot_stdev": world.spec.snapshot_stdev,
        "entities_involved_note": (
            "entities involved counts the distinct entities touched while"
            " discovering each query's scope, including entities absent from"
            " the current data"
        ),
    }
    return BenchReport(rows=rows, metadata=metadata)
