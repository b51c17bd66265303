"""Command line interface.

Subcommands: materialize an entity version, run a version query, run a
delta query, and generate plus run the benchmark.
Outputs are JSON documents on stdout (N-Quads for a single materialized
version when asked); errors are JSON objects on stderr.  Exit codes: 0
success, 2 usage, 3 configuration or source trouble, 4 domain errors
such as an unknown entity or an unsupported query.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from .delta_query import execute_delta_query
from .errors import ChronoRdfError, ConfigError, NetworkError, NoHistory
# perfbench/spans.py hooks the chain walker under the name cached_chain;
# materialize_at and materialize_span walk through materializer._chain
from .materializer import _chain as cached_chain
from .materializer import TimeInterval, UNBOUNDED, materialize_at, materialize_span
from .provenance import Snapshot, format_timestamp, parse_timestamp
from .rdf_model import Term, serialize
from .sources import Context, SourceConfig, load_sources
from .version_query import execute_version_query

_BARE_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def _time_arg(end_of_day: bool) -> "callable":
    def convert(text: str) -> datetime:
        value = text
        if _BARE_DATE.match(value):
            value += "T23:59:59" if end_of_day else "T00:00:00"
        try:
            return parse_timestamp(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _generated_at() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return format_timestamp(moment)


def _term_json(term: Term) -> dict:
    if term.is_iri:
        return {"type": "uri", "value": term.value}
    if term.kind == "blank":
        return {"type": "bnode", "value": term.value}
    doc = {"type": "literal", "value": term.value}
    if term.language:
        doc["xml:lang"] = term.language
    elif term.datatype and term.datatype != "http://www.w3.org/2001/XMLSchema#string":
        doc["datatype"] = term.datatype
    return doc


def _snapshot_json(snapshot: Snapshot | None) -> dict | None:
    if snapshot is None:
        return None
    return {
        "id": snapshot.id,
        "generated_at": format_timestamp(snapshot.generated_at),
        "invalidated_at": (
            format_timestamp(snapshot.invalidated_at) if snapshot.invalidated_at else None
        ),
        "attributed_to": snapshot.attributed_to,
        "primary_source": snapshot.primary_source,
        "derived_from": snapshot.derived_from,
        "description": snapshot.description,
        "has_update": snapshot.update is not None,
    }


def _emit(document: dict) -> None:
    document["generated_at"] = _generated_at()
    print(json.dumps(document, indent=2, sort_keys=True))


def _load_context(args: argparse.Namespace) -> Context:
    path = args.config or os.environ.get("CHRONO_RDF_CONFIG")
    if not path:
        raise ConfigError("no configuration: pass --config or set CHRONO_RDF_CONFIG")
    return load_sources(SourceConfig.from_file(path))


def _interval(args: argparse.Namespace) -> TimeInterval:
    start = getattr(args, "since", None)
    end = getattr(args, "until", None)
    if start is None and end is None:
        return UNBOUNDED
    return TimeInterval(start, end)


def _read_query(args: argparse.Namespace) -> str:
    if args.file == "-":
        return sys.stdin.read()
    try:
        return Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read query file {args.file}: {exc}")


def _cmd_materialize(args: argparse.Namespace) -> int:
    ctx = _load_context(args)
    entity = args.entity
    history = ctx.history(entity)
    if history is None:
        raise NoHistory(entity)
    if args.at is not None:
        version = materialize_at(entity, args.at, ctx.entity_quads(entity), history).version
        if args.format == "nquads":
            sys.stdout.write(serialize(version.graphs))
            return 0
        _emit(
            {
                "entity": entity,
                "at": format_timestamp(args.at),
                "snapshot": _snapshot_json(version.snapshot),
                "graph": serialize(version.graphs),
            }
        )
        return 0
    versions = materialize_span(entity, ctx.entity_quads(entity), history, _interval(args))
    _emit(
        {
            "entity": entity,
            "versions": [
                {
                    "snapshot": _snapshot_json(v.snapshot),
                    "time": format_timestamp(v.time) if v.time else None,
                    "graph": serialize(v.graphs),
                }
                for v in versions
            ],
        }
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    ctx = _load_context(args)
    text = _read_query(args)
    outcome = execute_version_query(text, ctx, interval=_interval(args), at=args.at)
    results = {
        key: [
            {var: _term_json(term) for var, term in binding.as_dict().items()}
            for binding in solutions.sorted_rows()
        ]
        for key, solutions in outcome.results.items()
    }
    _emit(
        {
            "mode": "single" if args.at is not None else "cross",
            "results": results,
            "relevant_entities": sorted(outcome.relevant_entities),
            "snapshots_involved": outcome.snapshots_involved,
            "timeline": [format_timestamp(t) for t in outcome.timeline.times],
        }
    )
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    ctx = _load_context(args)
    text = _read_query(args)
    outcome = execute_delta_query(
        text, ctx, properties=tuple(args.properties or ()), interval=_interval(args)
    )
    _emit(
        {
            "records": [
                {
                    "entity": r.entity,
                    "snapshot": r.snapshot,
                    "time": format_timestamp(r.time),
                    "kind": r.kind,
                    "description": r.description,
                    "attributed_to": r.attributed_to,
                    "added": serialize(r.delta.added),
                    "removed": serialize(r.delta.removed),
                }
                for r in outcome.report
            ],
            "relevant_entities": sorted(outcome.relevant_entities),
            "entities_involved": len(outcome.relevant_entities),
        }
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .benchgen import BenchReport, GenSpec, bench_run, generate

    spec = GenSpec(seed=args.seed, n_entities=args.entities)
    world = generate(spec)
    out = Path(args.out)
    world.save(out, include_ledger=not args.no_ledger)
    report = bench_run(world, repetitions=args.repetitions, subjects=args.subjects)
    report.to_csv(out / "report.csv")
    report.to_json(out / "report.json")
    _emit(
        {
            "out": str(out),
            "rows": [row.as_dict() for row in report.rows],
        }
    )
    return 0


class UsageError(Exception):
    """The command line is malformed or contradictory (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError instead of printing usage.

    Subparsers inherit the class, so a failure anywhere on the command
    line reaches main, which prints it as one JSON error object.
    """

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chrono-rdf",
        description="Time traversal queries over RDF datasets with change tracking.",
    )
    parser.add_argument("--config", help="path to a JSON source configuration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materialize", help="reconstruct entity versions")
    p.add_argument("entity", help="entity IRI")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", type=_time_arg(False), help="timestamp or date")
    group.add_argument("--all", action="store_true", help="every version in range")
    p.add_argument("--from", dest="since", type=_time_arg(False), help="range start")
    p.add_argument("--to", dest="until", type=_time_arg(True), help="range end")
    p.add_argument(
        "--format", choices=("json", "nquads"), default="json",
        help="output format (nquads only with --at)",
    )
    p.set_defaults(func=_cmd_materialize)

    p = sub.add_parser("query", help="run a query across versions")
    p.add_argument("--file", required=True, help="query file, or - for stdin")
    p.add_argument("--at", type=_time_arg(False), help="single version timestamp")
    p.add_argument("--from", dest="since", type=_time_arg(False), help="range start")
    p.add_argument("--to", dest="until", type=_time_arg(True), help="range end")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("delta", help="run a query over changes")
    p.add_argument("--file", required=True, help="query file, or - for stdin")
    p.add_argument(
        "--properties", nargs="*", default=None,
        help="only report changes touching these predicate IRIs",
    )
    p.add_argument("--from", dest="since", type=_time_arg(False), help="range start")
    p.add_argument("--to", dest="until", type=_time_arg(True), help="range end")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("bench", help="generate a corpus and run the benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--entities", type=int, default=1000)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--subjects", type=int, default=3)
    p.add_argument(
        "--no-ledger", action="store_true",
        help="skip writing the per-version ledger files",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _check_usage(args: argparse.Namespace) -> None:
    at = getattr(args, "at", None)
    since, until = getattr(args, "since", None), getattr(args, "until", None)
    if getattr(args, "format", "json") == "nquads" and not at:
        raise UsageError("--format nquads requires --at")
    if at is not None and (since is not None or until is not None):
        raise UsageError("--at names one instant; it cannot be combined with --from or --to")
    if since is not None and until is not None and since > until:
        raise UsageError(
            f"--from {format_timestamp(since)} lies after --to {format_timestamp(until)}"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_usage(args)
    except UsageError as exc:
        return _fail(exc, 2)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, NetworkError) as exc:
        return _fail(exc, 3)
    except ChronoRdfError as exc:
        return _fail(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
