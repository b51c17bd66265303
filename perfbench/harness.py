"""One benchmark run: corpus, child processes, gate, report.

The warm workloads run `worker.py` in one child; `cli-oneshot` runs one
`launcher.py` child per CLI call.  The timed pass answers a fixed list of
seeded requests in whole rounds until `--seconds` of request time are
spent, and every timing metric is computed from each request's fastest
round (see README, "Rounds and the fastest round").  Every answer is
gated against the generator's ledger after the children have ended,
outside the timed region: a first round's answer against the ledger, a
later round's against the first.  All files of a run live in
`.perfbench_work/<run>/` under the checkout and are removed when the run
ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import corpus, oracle, spans, stats, streams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STREAMS = {
    "point-lookups": streams.point_lookups,
    "whole-history": streams.whole_history,
    "cli-oneshot": streams.cli_calls,
}
# Every run reads the same corpus; --seed draws the requests.
CORPUS_SEED = 42
CHILD_TIMEOUT_S = 150
SETUPS = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # One string-hash seed for every run: set and dict layouts, and the
    # order the program walks them in, are then the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_times(records: list[dict]) -> list[dict]:
    """Each request's fastest round, in stream order.

    A request that raised or exited non-zero in any round is left out.
    """
    best: dict[int, dict] = {}
    broken = set()
    for r in records:
        if "error" in r:
            broken.add(r["i"])
        elif r["i"] not in best or r["s"] < best[r["i"]]["s"]:
            best[r["i"]] = r
    return [best[i] for i in sorted(best) if i not in broken]


def _latency_metrics(best: list[dict]) -> dict:
    """Latency and throughput figures over the requests' fastest rounds."""
    ms = [r["s"] * 1000 for r in best]
    metrics = {
        "throughput_rps": _metric(len(best) / sum(r["s"] for r in best), "1/s"),
        "latency_p50_ms": _metric(statistics.median(ms), "ms"),
        "latency_p90_ms": _metric(stats.percentile(ms, 90), "ms"),
    }
    for kind, name in (("materialize", "materialize_p50_ms"),
                       ("version_range", "version_range_p50_ms"),
                       ("delta", "delta_p50_ms")):
        of_kind = [r["s"] * 1000 for r in best if r["kind"] == kind]
        if of_kind:
            metrics[name] = _metric(statistics.median(of_kind), "ms")
    return metrics


def _report_lines(workload: str, seed: int, size: dict, records: list[dict],
                  measured: str, pass_: dict, failures: list[str]) -> list[str]:
    """Human-readable lines: input size, requests per type, tails, errors.

    `measured` names the pass the figures come from, `pass_` its summary.
    """
    best = best_times([r for r in records if r["pass"] == measured])
    lines = [
        f"workload {workload}, seed {seed} (requests; the corpus is seed {CORPUS_SEED}'s)",
        "input: {entities} entities, {data_quads} data quads, {provenance_quads}"
        " provenance quads ({provenance_mb:.1f} MB), {stored_updates} stored updates"
        " ({update_text_mb:.1f} MB of update text), {snapshot_times} distinct snapshot"
        " times over {days:.0f} days".format(**size),
    ]
    rounds = pass_.get("rounds", 1)
    per_kind = {k: [r for r in best if r["kind"] == k] for k in streams.KINDS}
    lines.append("requests: " + ", ".join(
        f"{k} {len(v)}" for k, v in per_kind.items() if v)
        + f"; {pass_['requests']} distinct, each answered in {rounds} round(s);"
        f" {len(records)} answers in all")
    ms = [r["s"] * 1000 for r in best]
    tail = stats.tail_percentile(len(ms))
    if tail is not None and tail > 50:
        lines.append(f"latency tail (fastest rounds): p{tail:g} ="
                     f" {stats.percentile(ms, tail):.3f} ms over {len(ms)} requests")
    for kind, group in per_kind.items():
        if group:
            lines.append(f"  {kind}: p50 {statistics.median(r['s'] * 1000 for r in group):.3f}"
                         f" ms over {len(group)}")
    first = [r["s"] * 1000 for r in records
             if r["pass"] == measured and r.get("round", 0) == 0 and "error" not in r]
    if first and rounds > 1:
        lines.append(f"first round alone: p50 {statistics.median(first):.3f} ms,"
                     f" p90 {stats.percentile(first, 90):.3f} ms; all rounds:"
                     f" {pass_['requests'] * rounds / pass_['busy_s']:.3f} requests"
                     f" per second of request time")
    ratio = len(failures) / len(records) if records else 0.0
    lines.append(f"error_ratio {ratio:.4f} ({len(failures)} of {len(records)})")
    lines.extend(f"  failure: {f}" for f in failures[:5])
    return lines


def run_warm(requests: list[dict], seconds: float, trace: bool, corpus_,
             work: Path) -> tuple[list[dict], dict, dict]:
    """Run the worker over the stream; returns (records, worker report, spans)."""
    requests_path = work / "requests.jsonl"
    with open(requests_path, "w", encoding="utf-8") as f:
        for req in requests:
            f.write(json.dumps(req) + "\n")
    plan = {
        "config": str(corpus_.config),
        "entities": sorted(corpus_.world.ledger.entities),
        "requests": str(requests_path),
        "answers": str(work / "answers.jsonl"),
        "report": str(work / "worker.json"),
        "spans": str(work / "spans.json"),
        "seconds": seconds,
        "setups": SETUPS,
        "trace": trace,
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", str(plan_path)],
        env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(Path(plan["report"]).read_text(encoding="utf-8"))
    with open(plan["answers"], encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    traced = {}
    if trace:
        traced = json.loads(Path(plan["spans"]).read_text(encoding="utf-8"))
    return records, report, traced


def _cli_argv(req: dict, config: Path, query: Path) -> list[str]:
    if req["op"] == "cli_materialize":
        return ["--config", str(config), "materialize", "--all", req["entity"]]
    query.write_text(streams.query_text(req), encoding="utf-8")
    command = "query" if req["op"] == "cli_query" else "delta"
    return ["--config", str(config), command, "--file", str(query)]


def _cli_call(req: dict, index: int, pass_name: str, round_: int, traced: bool,
              corpus_, work: Path, report: dict, children: list[dict]) -> dict:
    """One CLI child, spawn to exit; returns its record."""
    tag = f"{pass_name}-{round_}-{index}"
    argv = _cli_argv(req, corpus_.config, work / f"{tag}.rq")
    out_path = work / f"launch-{tag}.json"
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.launcher", str(out_path),
         "1" if traced else "0", "--", *argv],
        env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    elapsed = perf_counter() - started
    record = {"pass": pass_name, "round": round_, "i": index, "kind": req["kind"],
              "s": elapsed}
    inside = {"counts": {}}
    if out_path.exists():
        inside = json.loads(out_path.read_text(encoding="utf-8"))
    if proc.returncode != 0:
        record["error"] = (f"exit {proc.returncode}: "
                           f"{proc.stderr.decode('utf-8', 'replace')[-500:]}")
    else:
        observe = inside.setdefault("counts", {}) if traced else None
        try:
            record["answer"] = oracle.from_cli(req, json.loads(proc.stdout), observe)
        except (ValueError, KeyError) as exc:
            record["error"] = f"unreadable output: {exc}"
    if traced:
        inside["counts"]["cli.output_bytes"] = len(proc.stdout)
        children.append(inside)
    else:
        report["setup_s"].extend(inside.get("load_s", []))
        report["peak_rss_mb"] = max(report["peak_rss_mb"], inside.get("peak_rss_mb", 0.0))
    return record


def run_cli(calls: list[dict], seconds: float, trace: bool, corpus_,
            work: Path) -> tuple[list[dict], dict, list[dict]]:
    """Sequential one-shot CLI calls; returns like run_warm, with one span
    document per traced child.

    The timed pass makes all the calls, in order, round after round
    until `seconds` of call time are spent.  A traced run makes one
    untraced and one traced round.
    """
    records: list[dict] = []
    children: list[dict] = []
    passes = [("untraced", False), ("traced", True)] if trace else [("timed", False)]
    report: dict = {"setup_s": [], "passes": {}, "peak_rss_mb": 0.0}
    for pass_name, traced in passes:
        spent = 0.0
        rounds = 0
        while rounds == 0 or (not trace and spent < seconds):
            for index, req in enumerate(calls):
                record = _cli_call(req, index, pass_name, rounds, traced, corpus_, work,
                                   report, children)
                spent += record["s"]
                records.append(record)
            rounds += 1
        report["passes"][pass_name] = {"requests": len(calls), "busy_s": spent,
                                       "rounds": rounds}
    return records, report, children


def _gate(records: list[dict], requests: list[dict], ledger) -> list[str]:
    """One failure line per answer that raised or is wrong.

    A first-round answer is checked against the ledger; an answer of a
    later round must equal the first round's answer to the same request.
    """
    gate = oracle.Gate(ledger)
    failures = []
    first: dict[tuple[str, int], dict] = {}
    for record in records:
        key = (record["pass"], record["i"])
        round_ = record.get("round", 0)
        where = f"request {record['i']} ({record['kind']}, round {round_})"
        if "error" in record:
            failures.append(f"{where}: {record['error']}")
        elif round_ == 0:
            first[key] = record["answer"]
            problem = gate.check(requests[record["i"]], record["answer"])
            if problem:
                failures.append(f"{where}: {problem}")
        elif record["answer"] != first.get(key):
            failures.append(f"{where}: answer differs from the first round's")
    return failures


def _summary(document: dict) -> dict:
    return {"summary": spans.summarize(document.get("spans", [])),
            "counts": document.get("counts", {})}


def _share_lines(requests: dict, records: list[dict], busy_s: float) -> list[str]:
    """Where the traced pass's request time went: by span, by operation type.

    Self times of all spans add up to the time inside the root spans; the
    rest of the pass is outside any span (the worker's own loop, or on
    `cli-oneshot` interpreter start and imports).  Collector pauses fall
    inside the spans they interrupt, so their share is given apart.
    """
    ranked = sorted(requests["summary"].items(), key=lambda kv: -kv[1]["self"])
    inside = sum(entry["self"] for _, entry in ranked)
    lines = [f"traced request time {busy_s:.3f} s, by span self time:"]
    lines.extend(f"  {name} {100 * entry['self'] / busy_s:.1f} %"
                 for name, entry in ranked if entry["self"] >= 0.001 * busy_s)
    lines.append(f"  outside any span {100 * (busy_s - inside) / busy_s:.1f} %")
    lines.append(f"  (collector pauses, inside the above,"
                 f" {100 * requests['counts'].get('gc.pause_s', 0.0) / busy_s:.1f} %)")
    by_kind = {k: sum(r["s"] for r in records if r["kind"] == k) for k in streams.KINDS}
    lines.append("traced request time by operation type: " + ", ".join(
        f"{k} {100 * v / busy_s:.1f} %" for k, v in by_kind.items() if v))
    return lines


def _layer_metrics(workload: str, report: dict, traced,
                   absent: set[str]) -> tuple[dict, dict]:
    """The per-layer metrics, and the merged summary of the traced requests."""
    if workload == "cli-oneshot":
        # every call is one set-up and one request
        setup = requests = spans.merge(_summary(child) for child in traced)
        setup_units = request_units = len(traced)
    else:
        setup, requests = _summary(traced["phases"]["setup"]), _summary(traced["phases"]["requests"])
        setup_units, request_units = 1, report["passes"]["traced"]["requests"]
    values = spans.layer_metrics(setup, setup_units, requests, request_units, absent)
    if workload != "cli-oneshot" and traced.get("cli"):
        cli = spans.merge(_summary(child) for child in traced["cli"])
        calls = len(traced["cli"])
        from_cli = spans.layer_metrics(cli, calls, cli, calls, absent)
        for name in spans.CLI_METRICS:
            if name in from_cli:
                values[name] = from_cli[name]
    untraced, traced_pass = report["passes"]["untraced"], report["passes"]["traced"]
    values["trace.overhead_ratio"] = (
        (traced_pass["requests"] / traced_pass["busy_s"])
        / (untraced["requests"] / untraced["busy_s"])
    )
    return ({name: _metric(value, spans.UNITS[name]) for name, value in values.items()},
            requests)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One run of one workload; prints the report and the result line."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        corpus_ = corpus.build(CORPUS_SEED, work)
        size = corpus.input_size(corpus_)
        ledger = corpus_.world.ledger
        requests = STREAMS[workload](ledger, seed)
        if workload == "cli-oneshot":
            records, report, traced = run_cli(requests, seconds, trace, corpus_, work)
            absent = {a for c in traced for a in c.get("absent", [])}
        else:
            records, report, traced = run_warm(requests, seconds, trace, corpus_, work)
            absent = set(traced.get("absent", []))
            if trace and workload == "whole-history":
                # one traced one-shot CLI query gives the CLI layer's figures
                call = streams.cli_calls(ledger, seed)[0]
                traced["cli"] = []
                records.append(_cli_call(call, len(requests), "cli", 0, True, corpus_, work,
                                         {}, traced["cli"]))
                requests.append(call)
                absent |= {a for c in traced["cli"] for a in c.get("absent", [])}
        failures = _gate(records, requests, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = "untraced" if trace else "timed"
    for line in _report_lines(workload, seed, size, records, measured,
                              report["passes"][measured], failures):
        print(line)
    if report["setup_s"]:
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in report['setup_s'])}")

    if trace:
        metrics, traced_requests = _layer_metrics(workload, report, traced, absent)
        for line in _share_lines(traced_requests,
                                 [r for r in records if r["pass"] == "traced"],
                                 report["passes"]["traced"]["busy_s"]):
            print(line)
        if absent:
            print(f"absent (hook target gone): {', '.join(sorted(absent))}")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(report["setup_s"]), "s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
            **_latency_metrics(best_times([r for r in records if r["pass"] == "timed"])),
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0
