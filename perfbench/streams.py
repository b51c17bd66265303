"""Seeded request streams, one per workload.

A request is a small JSON-ready dict: an `op`, the operation type
(`kind`) its latency is filed under, and the parameters drawn for it.
Query texts are rebuilt from the parameters with the generator's own
query builders, so the worker and the gate read the same text.  Equal
(ledger, seed) pairs give equal streams.
"""

from __future__ import annotations

import random
from collections import Counter
from datetime import datetime, timedelta
from typing import Sequence

from chrono_rdf.benchgen import (
    CITO_CITES,
    DATACITE_DOI,
    DATACITE_ISSN,
    DATACITE_ORCID,
    LITERAL_HAS_VALUE,
    EntityTruth,
    OracleLedger,
    known_subject_query,
    scheme_query,
)
from chrono_rdf.provenance import format_timestamp, parse_timestamp

SCHEMES = (DATACITE_DOI, DATACITE_ORCID, DATACITE_ISSN)
# DOI over all time takes tens of seconds at 1000 entities
FULL_RANGE_SCHEMES = (DATACITE_ORCID, DATACITE_ISSN)

# op -> (requests per block, operation type).  Streams are shuffled blocks,
# so every prefix holds the mix in nearly exact proportions.  Within each
# operation type one cluster of costs dominates, which keeps its median
# inside that cluster instead of in the gap between two.
# On point-lookups the text-search requests (needles, scheme queries) are
# seven in ten, so the overall median sits inside their costs, well above
# the cheap materialisations and known-subject lookups.
POINT_LOOKUP_MIX = {
    "materialize_at": (3, "materialize"),
    "known_at": (2, "version_at"),
    "needle_at": (4, "version_at"),
    "scheme_at": (3, "version_at"),
    "needle_all": (3, "version_range"),
    "known_day": (1, "delta"),
    "scheme_day": (4, "delta"),
}
# On whole-history the costliest type, known-subject cross-version, is a
# quarter of the stream, so p90 falls inside its dense middle rather than
# its sparse tail; known-subject deltas hold the overall median.
WHOLE_HISTORY_MIX = {
    "known_range": (10, "version_range"),
    "scheme_window": (2, "version_range"),
    "scheme_full": (1, "version_range"),
    "known_delta": (12, "delta"),
    "scheme_delta": (3, "delta"),
    "materialize_all": (12, "materialize"),
}
CLI_CYCLE = (("cli_query", "version_range"), ("cli_materialize", "materialize"),
             ("cli_delta", "delta"))

KINDS = ("materialize", "version_at", "version_range", "delta")

# Distinct requests per run, whole blocks of each mix.  A run answers them
# in rounds until its budget is spent, so a faster engine gets more
# rounds, not other requests.
POINT_LOOKUP_REQUESTS = 500
WHOLE_HISTORY_REQUESTS = 120
CLI_CYCLES = 1


class _Draw:
    def __init__(self, ledger: OracleLedger, rng: random.Random):
        self.ledger = ledger
        self.rng = rng
        names = sorted(ledger.entities)
        self.entities = names
        # works that cite something at some time, as bench_run picks them
        self.brs = [
            e for e in names if "/br/" in e and any(
                q.predicate.value == CITO_CITES
                for version in ledger.entities[e].versions for q in version)
        ]
        self.ids = [e for e in names if "/id/" in e]
        self._queues: dict[int, list[str]] = {}
        times = ledger.change_times()
        self.first, self.last = times[0], times[-1]

    def pick(self, pool: Sequence[str]) -> str:
        """The next item of a shuffled pass over the pool.

        Passes use every item once before any repeats, so a run's
        requests cover the corpus and the schemes evenly instead of by
        chance, and runs of different seeds hold nearly the same mix.
        """
        queue = self._queues.setdefault(id(pool), [])
        if not queue:
            queue.extend(pool)
            self.rng.shuffle(queue)
        return queue.pop()

    @staticmethod
    def fixed(name: str, pool: Sequence[str], size: int) -> list[str]:
        """A sample of `size` items of the pool that does not depend on the seed.

        Per-entity costs of one operation spread widely (a known-subject
        query over all time takes from 16 ms to 115 ms at 200 entities),
        so a seeded sample of a few dozen of them moves a run's medians
        by more than the benchmark's bounds.  Requests that draw each
        item of such a sample once hold the same entities in every run;
        the seed orders them and draws their instants and windows.
        """
        ordered = sorted(pool)
        return random.Random(f"pool:{name}").sample(ordered, min(size, len(ordered)))

    def instant(self, start: datetime, end: datetime,
                rng: random.Random | None = None) -> datetime:
        span = int((end - start).total_seconds())
        return start + timedelta(seconds=(rng or self.rng).randint(0, max(span, 0)))

    def world_instant(self) -> datetime:
        return self.instant(self.first, self.last)

    def life_instant(self, truth: EntityTruth, rng: random.Random | None = None) -> datetime:
        return self.instant(truth.times[0], truth.times[-1], rng)

    def needle(self) -> tuple[str, datetime]:
        """A value some identifier held once, and an instant it was live."""
        while True:
            truth = self.ledger.entities[self.pick(self.ids)]
            held = [
                (k, q.object) for k, version in enumerate(truth.versions)
                for q in version if q.predicate.value == LITERAL_HAS_VALUE
            ]
            if not held:
                continue
            k, value = held[self.rng.randrange(len(held))]
            end = truth.times[k + 1] - timedelta(seconds=1) if k + 1 < len(truth.times) \
                else truth.times[k]
            return value.n3(), self.instant(truth.times[k], max(end, truth.times[k]))


def _ops(rng: random.Random, mix: dict[str, tuple[int, str]], count: int) -> list[str]:
    """`count` op names drawn as shuffled blocks holding the mix exactly."""
    block = [op for op, (weight, _kind) in mix.items() for _ in range(weight)]
    out: list[str] = []
    while len(out) < count:
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def point_lookups(ledger: OracleLedger, seed: int,
                  count: int = POINT_LOOKUP_REQUESTS) -> list[dict]:
    draw = _Draw(ledger, random.Random(f"point-lookups:{seed}"))
    rng = draw.rng
    ops = _ops(rng, POINT_LOOKUP_MIX, count)
    pools = {op: draw.fixed(op, pool, ops.count(op)) for op, pool in (
        ("materialize_at", draw.entities), ("known_at", draw.brs), ("known_day", draw.brs))}
    picked: Counter = Counter()
    out = []
    for op in ops:
        req: dict = {"op": op, "kind": POINT_LOOKUP_MIX[op][1]}
        if op == "materialize_at":
            # the instant sets how many changes are undone, so it is fixed
            # with the entity, like the pool
            entity = draw.pick(pools[op])
            picked[entity] += 1
            fixed = random.Random(f"pool:{op}:{entity}:{picked[entity]}")
            req.update(entity=entity,
                       at=format_timestamp(draw.life_instant(ledger.entities[entity], fixed)))
        elif op == "known_at":
            req.update(entity=draw.pick(pools[op]), at=format_timestamp(draw.world_instant()))
        elif op in ("needle_at", "needle_all"):
            value, at = draw.needle()
            req["value"] = value
            if op == "needle_at":
                req["at"] = format_timestamp(at)
        elif op == "scheme_at":
            req.update(scheme=draw.pick(SCHEMES), at=format_timestamp(draw.world_instant()))
        else:  # one day of changes, for a citing work or a scheme
            start = draw.world_instant()
            req.update(start=format_timestamp(start), end=format_timestamp(start + timedelta(days=1)))
            if op == "known_day":
                req["entity"] = draw.pick(pools[op])
            else:
                req["scheme"] = draw.pick(SCHEMES)
        out.append(req)
    return out


def whole_history(ledger: OracleLedger, seed: int,
                  count: int = WHOLE_HISTORY_REQUESTS) -> list[dict]:
    draw = _Draw(ledger, random.Random(f"whole-history:{seed}"))
    rng = draw.rng
    ops = _ops(rng, WHOLE_HISTORY_MIX, count)
    pools = {op: draw.fixed(op, pool, ops.count(op)) for op, pool in (
        ("known_range", draw.brs), ("known_delta", draw.brs),
        ("materialize_all", draw.entities))}
    out = []
    for op in ops:
        req: dict = {"op": op, "kind": WHOLE_HISTORY_MIX[op][1]}
        if op in ("known_range", "known_delta"):
            req["entity"] = draw.pick(pools[op])
        elif op == "scheme_window":
            start = draw.world_instant()
            days = rng.randint(2, 5)
            req.update(scheme=draw.pick(SCHEMES), start=format_timestamp(start),
                       end=format_timestamp(start + timedelta(days=days)))
        elif op == "scheme_delta":
            req["scheme"] = draw.pick(SCHEMES)
        elif op == "scheme_full":
            req["scheme"] = draw.pick(FULL_RANGE_SCHEMES)
        else:
            req["entity"] = draw.pick(pools[op])
        out.append(req)
    return out


def cli_calls(ledger: OracleLedger, seed: int, cycles: int = CLI_CYCLES) -> list[dict]:
    """Cycles of the three one-shot CLI calls."""
    draw = _Draw(ledger, random.Random(f"cli-oneshot:{seed}"))
    pools = {"cli_materialize": draw.fixed("cli_materialize", draw.entities, cycles),
             "cli_delta": draw.fixed("cli_delta", draw.brs, cycles)}
    out = []
    for _ in range(cycles):
        for op, kind in CLI_CYCLE:
            req: dict = {"op": op, "kind": kind}
            if op == "cli_query":
                req["scheme"] = DATACITE_ORCID
            else:
                req["entity"] = draw.pick(pools[op])
            out.append(req)
    return out


def query_text(req: dict) -> str:
    """The SPARQL text a version or delta request runs."""
    if "value" in req:
        return (
            "SELECT ?s\nWHERE {\n"
            f"  ?s <{LITERAL_HAS_VALUE}> {req['value']} .\n"
            "}"
        )
    if "scheme" in req:
        return scheme_query(req["scheme"])
    return known_subject_query(req["entity"])


def times(req: dict) -> tuple[datetime | None, datetime | None, datetime | None]:
    """(at, interval start, interval end) of a request; None where open."""
    def read(key: str) -> datetime | None:
        return parse_timestamp(req[key]) if key in req else None
    return read("at"), read("start"), read("end")
