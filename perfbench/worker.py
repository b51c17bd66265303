"""Child process of the warm workloads: set up, then serve the request stream.

Usage: python -m perfbench.worker PLAN.json

The plan names the source configuration, the ledger's entities (for
priming), the request file, the output files, the measuring budget and
whether to trace.  The worker builds a ready context `setups` times and
keeps the last.  It then answers the requests in order, closed loop, and
answers them again in further rounds, each in its own shuffled order and
on the next CPU in turn, until the summed request time reaches the
budget.  Each answer is reduced to its canonical form outside the timer
and kept as a JSON line, so the heap the collector walks holds little
beyond the program's own state; the lines are written out when the pass
ends.

With tracing on, one traced set-up is followed by an untraced pass over
half the budget and a traced replay of the same requests; the ratio of
the two passes is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from time import perf_counter

from chrono_rdf import delta_query, materializer, version_query
from chrono_rdf.materializer import TimeInterval

from . import corpus, oracle, spans, streams

ROOT_SPANS = {
    "materialize_at": "materializer.materialize_at",
    "materialize_all": "materializer.materialize_all",
    "delta": "delta_query.execute_delta_query",
    "version": "version_query.execute_version_query",
}


def _prepare(req: dict):
    """(root span name, call, canonicaliser) for one request; untimed."""
    at, start, end = streams.times(req)
    op = req["op"]
    if op in ("materialize_at", "materialize_all"):
        entity = req["entity"]

        def call(ctx):
            data, history = ctx.entity_quads(entity), ctx.history(entity)
            if op == "materialize_at":
                return [materializer.materialize_at(entity, at, data, history).version]
            return materializer.materialize_all(entity, data, history)

        return ROOT_SPANS[op], call, lambda out, observe: oracle.from_versions(out)
    text = streams.query_text(req)
    interval = TimeInterval(start, end)
    if req["kind"] == "delta":
        return (
            ROOT_SPANS["delta"],
            lambda ctx: delta_query.execute_delta_query(text, ctx, interval=interval),
            oracle.from_delta_outcome,
        )
    return (
        ROOT_SPANS["version"],
        lambda ctx: version_query.execute_version_query(text, ctx, interval=interval, at=at),
        lambda out, observe: oracle.from_version_outcome(out, observe, single=at is not None),
    )


def serve(ctx, requests, out: list[str], budget_s: float | None, limit: int | None,
          recorder: spans.Recorder | None, pass_name: str, round_: int = 0,
          kept: list | None = None) -> tuple[int, float]:
    """Answer (index, request) pairs until the budget or the limit.

    Returns (count, busy s).  Records go to `out` as JSON lines, kept in
    memory until the pass ends so that no file is written while requests
    are timed.  Pairs served are appended to `kept`, when given, for later
    rounds.
    """
    busy = 0.0
    done = 0
    for index, req in requests:
        if (limit is not None and done >= limit) or (budget_s is not None and busy >= budget_s):
            break
        if kept is not None:
            kept.append((index, req))
        root, call, canonical = _prepare(req)
        record = {"pass": pass_name, "round": round_, "i": index, "kind": req["kind"]}
        if recorder is not None:
            recorder.request = index
        started = perf_counter()
        try:
            result = call(ctx) if recorder is None else recorder.call(root, call, ctx)
        except Exception as exc:  # a failed request is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - started
        busy += elapsed
        done += 1
        record["s"] = elapsed
        if "error" not in record:
            record["answer"] = canonical(result, recorder.counts if recorder else None)
        out.append(json.dumps(record) + "\n")
    return done, busy


def _run_on(cpus: set[int]) -> None:
    """Move this process to the given CPUs, where the system allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _requests(path: str):
    with open(path, encoding="utf-8") as f:
        for index, line in enumerate(f):
            yield index, json.loads(line)


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    probe = corpus.probe_pattern()
    entities = plan["entities"]
    report: dict = {"setup_s": [], "passes": {}}
    recorder = spans.Recorder()
    hooks = spans.Hooks(recorder)
    phases: dict[str, dict] = {}

    ctx = None
    if plan["trace"]:
        hooks.install(spans.HOOKS).count_index_builds()
        recorder.request = "setup"
        ctx, seconds = corpus.ready_context(plan["config"], entities, probe)
        report["setup_s"].append(seconds)
        phases["setup"] = recorder.take()
        hooks.remove()
    else:
        for _ in range(plan["setups"]):
            ctx = None
            gc.collect()  # drop the previous context before building the next
            ctx, seconds = corpus.ready_context(plan["config"], entities, probe)
            report["setup_s"].append(seconds)

    out: list[str] = []
    if not plan["trace"]:
        budget = plan["seconds"]
        kept: list[tuple[int, dict]] = []
        count, busy = serve(ctx, _requests(plan["requests"]), out,
                            budget, None, None, "timed", 0, kept)
        cpus = sorted(os.sched_getaffinity(0))
        rounds = 1
        while busy < budget:
            # Each round in its own order, so that no request keeps its
            # place relative to anything periodic on the host, and on the
            # next CPU in turn: the CPUs slow down and recover
            # independently of each other, and a process the scheduler
            # leaves on one slowed CPU would be slow for the whole run.
            random.Random(rounds).shuffle(kept)
            _run_on({cpus[rounds % len(cpus)]})
            busy += serve(ctx, kept, out, None, None, None, "timed", rounds)[1]
            rounds += 1
        _run_on(set(cpus))
        report["passes"]["timed"] = {"requests": count, "busy_s": busy, "rounds": rounds}
        report["peak_rss_mb"] = spans.peak_rss_mb()
    else:
        count, busy = serve(ctx, _requests(plan["requests"]), out,
                            plan["seconds"] / 2, None, None, "untraced")
        report["passes"]["untraced"] = {"requests": count, "busy_s": busy}
        hooks.install(spans.HOOKS).count_index_builds()
        with spans.GcWatch(recorder.counts), \
                spans.DeltaApplications(recorder.counts, hooks.absent):
            count, busy = serve(ctx, _requests(plan["requests"]), out,
                                None, count, recorder, "traced")
        hooks.remove()
        report["passes"]["traced"] = {"requests": count, "busy_s": busy}
        phases["requests"] = recorder.take()
    with open(plan["answers"], "w", encoding="utf-8") as f:
        f.writelines(out)

    if plan["trace"]:
        with open(plan["spans"], "w", encoding="utf-8") as f:
            json.dump({"phases": phases, "absent": sorted(hooks.absent)}, f)
    with open(plan["report"], "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
