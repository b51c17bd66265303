"""The benchmark corpus: generated from the seed, saved as files, loaded back.

The generator (`chrono_rdf.benchgen.generate`) replays every history
while it builds the world, so a corpus that reaches the benchmark already
agrees with its own ledger.  The program under test only ever sees the
saved N-Quads files and a default source configuration naming them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from chrono_rdf import sources
from chrono_rdf.benchgen import GenSpec, GeneratedWorld, generate, scheme_query
from chrono_rdf.provenance import OCO_HAS_UPDATE_QUERY
from chrono_rdf.sparql_engine import TriplePattern, parse_select
from chrono_rdf.version_query import classify

# 1000 entities (the ROADMAP's size) costs about 21 s per ready context
# on a 2-core host; three set-ups per run would not fit the run budget.
ENTITIES = 200


@dataclass
class Corpus:
    world: GeneratedWorld
    directory: Path
    config: Path


def build(seed: int, directory: Path) -> Corpus:
    """Generate the world for `seed` and save data, provenance and config."""
    world = generate(GenSpec(seed=seed, n_entities=ENTITIES))
    directory.mkdir(parents=True, exist_ok=True)
    world.save(directory, include_ledger=False)
    config = directory / "config.json"
    config.write_text(
        json.dumps({
            "data": [str(directory / "data.nq")],
            "provenance": [str(directory / "provenance.nq")],
        }),
        encoding="utf-8",
    )
    return Corpus(world=world, directory=directory, config=config)


def input_size(corpus: Corpus) -> dict:
    """The figures every report states about the input."""
    world = corpus.world
    updates = [
        q.object.value for q in world.provenance
        if q.predicate.value == OCO_HAS_UPDATE_QUERY
    ]
    times = world.ledger.change_times()
    return {
        "entities": world.spec.n_entities,
        "data_quads": len(world.data),
        "provenance_quads": len(world.provenance),
        "provenance_mb": (corpus.directory / "provenance.nq").stat().st_size / 1e6,
        "stored_updates": len(updates),
        "update_text_mb": sum(len(t.encode("utf-8")) for t in updates) / 1e6,
        "snapshot_times": len(times),
        "days": (times[-1] - times[0]).total_seconds() / 86400 if times else 0.0,
    }


def probe_pattern() -> TriplePattern:
    """The isolated pattern whose subject match builds the live-data index."""
    return classify(parse_select(scheme_query())).isolated[0]


def ready_context(config_path: str, entities: list[str], probe: TriplePattern):
    """Load the sources and do every piece of lazy work a warm query would.

    Returns (context, seconds from the load_sources call to ready).
    """
    config = sources.SourceConfig.from_file(config_path)
    started = perf_counter()
    ctx = sources.load_sources(config)
    ctx.delta_records()
    for entity in entities:
        ctx.history(entity)
        ctx.entity_quads(entity)
    ctx.match_subjects(probe)
    return ctx, perf_counter() - started
