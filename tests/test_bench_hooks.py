"""The benchmark's hooks still find every name they wrap in the program.

`perfbench/spans.py` traces a run by replacing names in chrono_rdf's
modules.  A name the program no longer has is skipped without an error,
and every per-layer metric that depends on it drops out of the traced
result.  These tests install the hooks the way `perfbench/launcher.py`
does and fail as soon as a target is gone or a chain walk stops passing
through a hooked name.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import ID

from chrono_rdf import cli, delta_query, materializer, version_query
from chrono_rdf.benchgen import known_subject_query

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402

CHAIN = "materializer.chain"


@pytest.fixture()
def traced():
    recorder = spans.Recorder()
    hooks = spans.Hooks(recorder)
    hooks.install(spans.HOOKS).install(spans.CLI_HOOKS).count_index_builds()
    try:
        yield recorder, hooks
    finally:
        hooks.remove()


def chain_spans_under(recorder: spans.Recorder, parent: str, fn, *args) -> list:
    """Run fn(*args) in a span named `parent`; the chain spans whose
    enclosing span is the named one."""
    recorder.call("test.call", fn, *args)
    recorded = recorder.take()["spans"]
    parents = {i for i, span in enumerate(recorded) if span[0] == parent}
    return [span for span in recorded if span[0] == CHAIN and span[3] in parents]


def test_every_hook_finds_its_target(traced):
    _recorder, hooks = traced
    assert hooks.absent == set()
    counts, absent = Counter(), set()
    watch = spans.DeltaApplications(counts, absent)
    assert watch.counter is not None
    assert absent == set()


def test_hooked_walker_aliases_are_the_walker_itself():
    # the aliases exist for the hooks; a wrapper or copy would trace nothing
    for module in (version_query, delta_query, cli):
        assert module.cached_chain is materializer._chain


def test_declared_per_layer_metrics_are_all_reported(traced):
    _recorder, hooks = traced
    counts, absent = Counter(), set(hooks.absent)
    spans.DeltaApplications(counts, absent)
    values = spans.layer_metrics(spans.merge([]), 1, spans.merge([]), 1, absent)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = {m["name"] for m in declared} - set(values) - {"trace.overhead_ratio"}
    assert missing == set()


def _entity_with(world, kind: str) -> str:
    return next(
        entity
        for entity, truth in sorted(world.ledger.entities.items())
        if len(truth.times) >= 3 and any(s.kind == kind for s in truth.snapshots)
    )


def test_cross_version_query_walks_through_a_hook(traced, small_world):
    recorder, _hooks = traced
    entity = _entity_with(small_world, "modified")
    walks = chain_spans_under(
        recorder, "version_query.explicate",
        version_query.execute_version_query, known_subject_query(entity),
        small_world.context(),
    )
    assert walks


def test_delta_check_of_an_emptied_entity_walks_through_a_hook(traced, small_world):
    recorder, _hooks = traced
    entity = _entity_with(small_world, "deleted")
    ctx = small_world.context()
    text = f"SELECT ?p ?o WHERE {{ <{entity}> ?p ?o }}"
    assert any(r.kind == "deleted" for r in delta_query.execute_delta_query(text, ctx).report)
    recorder.take()
    # the deleted check runs in execute_delta_query itself, not in discovery
    walks = chain_spans_under(recorder, "test.call", delta_query.execute_delta_query, text, ctx)
    assert walks


def test_materialize_at_walks_through_a_hook(traced, small_world):
    recorder, _hooks = traced
    entity = _entity_with(small_world, "modified")
    truth = small_world.ledger.entities[entity]
    ctx = small_world.context()
    walks = chain_spans_under(
        recorder, "test.call", materializer.materialize_at,
        entity, truth.times[1], ctx.entity_quads(entity), ctx.history(entity),
    )
    assert walks


def test_cli_materialize_at_walks_through_a_hook(traced, doi_files, tmp_path, capsys):
    recorder, _hooks = traced
    data_path, prov_path = doi_files
    config = tmp_path / "sources.json"
    config.write_text(
        json.dumps({"data": [str(data_path)], "provenance": [str(prov_path)]}),
        encoding="utf-8",
    )
    argv = ["--config", str(config), "materialize", ID, "--at", "2021-10-15T00:00:00"]
    walks = chain_spans_under(recorder, "test.call", cli.main, argv)
    assert capsys.readouterr().err == ""
    assert walks
