"""Tracing from outside the program: spans around calls into each layer.

`install` replaces public names in chrono_rdf's modules with wrappers that
record one span per call (name, start, end, parent span, request id) and
bump counters.  Spans stay in memory until the run ends.  A name the
program no longer has is skipped, and the metrics that depend on it are
reported as absent.  `layer_metrics` turns spans and counters into the
per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterable

Observe = Callable[[Counter, tuple, dict, object], None]


class Recorder:
    """Spans and counters of one process; `take` hands over and resets them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, observe: Observe | None = None) -> Callable:
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span of its own; for the benchmark's calls."""
        return self.wrap(fn, name)(*args)

    def take(self) -> dict:
        data = {"spans": list(self.spans), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return data


# -- hooks -----------------------------------------------------------------


def _count(key: str, amount: Callable[[tuple, dict, object], float]) -> Observe:
    def observe(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)
    return observe


def _search_observed(counts, args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs.get("records", ())
    index = args[2] if len(args) > 2 else kwargs.get("index")
    if index is None:
        counts["version_query.records_scanned"] += len(records)
    counts["version_query.text_candidates"] += len(result)


def _aligned(counts, args, kwargs, result):
    counts["version_query.timeline_keys"] += len(result.times)
    counts["version_query.merged_quads"] += sum(len(g) for g in result.datasets.values())


def _chain_built(counts, args, kwargs, result):
    graphs = result[0] if isinstance(result, tuple) else result
    counts["materializer.versions_built"] += len(graphs)


_relevant = _count("version_query.relevant_entities", lambda a, k, r: len(r.relevant))

# (module, attribute, span name, observer); a dotted attribute is a method
HOOKS: tuple[tuple[str, str, str, Observe | None], ...] = (
    ("sources", "parse_document", "rdf_model.parse_document",
     _count("rdf_model.parse_chars", lambda a, k, r: len(a[0]))),
    ("sources", "load_sources", "sources.load_sources", None),
    ("sources", "Context.delta_records", "sources.delta_records",
     _count("sources.delta_records_returned", lambda a, k, r: len(r))),
    ("sources", "load_history", "provenance.load_history", None),
    ("sparql_engine", "parse_update", "sparql_engine.parse_update", None),
    ("version_query", "classify", "version_query.classify", None),
    ("delta_query", "classify", "version_query.classify", None),
    ("version_query", "explicate", "version_query.explicate", _relevant),
    ("delta_query", "explicate", "version_query.explicate", _relevant),
    ("version_query", "search_deltas", "version_query.search_deltas", _search_observed),
    ("version_query", "cached_chain", "materializer.chain", _chain_built),
    ("delta_query", "cached_chain", "materializer.chain", _chain_built),
    ("materializer", "_chain", "materializer.chain", _chain_built),
    ("version_query", "align_and_merge", "version_query.align_and_merge", _aligned),
    ("version_query", "evaluate", "sparql_engine.evaluate", None),
)

CLI_LOAD_HOOK = ("cli", "load_sources", "sources.load_sources", None)
CLI_HOOKS: tuple[tuple[str, str, str, Observe | None], ...] = (
    CLI_LOAD_HOOK,
    ("cli", "execute_version_query", "version_query.execute_version_query", None),
    ("cli", "execute_delta_query", "delta_query.execute_delta_query", None),
    ("cli", "materialize_span", "materializer.materialize_span", None),
    ("cli", "cached_chain", "materializer.chain", _chain_built),
)

INDEX_CLASS_SITES = ("sparql_engine", "version_query", "sources")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"chrono_rdf.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


class Hooks:
    """Installed wrappers, restorable; `absent` lists spans with no target."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self, hooks: Iterable[tuple[str, str, str, Observe | None]]) -> "Hooks":
        for module, attribute, span_name, observe in hooks:
            owner, name = _resolve(module, attribute)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.add(span_name)
                continue
            self._patch(owner, name, self.recorder.wrap(original, span_name, observe))
        return self

    def count_index_builds(self) -> "Hooks":
        """Swap TripleIndex for a subclass that counts constructions."""
        counts = self.recorder.counts
        for module in INDEX_CLASS_SITES:
            owner = importlib.import_module(f"chrono_rdf.{module}")
            base = getattr(owner, "TripleIndex", None)
            if base is None:
                self.absent.add("sparql_engine.TripleIndex")
                continue

            class CountingIndex(base):
                def __init__(self, *args, **kwargs):
                    counts["sparql_engine.triple_index_builds"] += 1
                    super().__init__(*args, **kwargs)

            self._patch(owner, "TripleIndex", CountingIndex)
        return self

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class GcWatch:
    """Collector pauses, observed through gc.callbacks; never alters the collector."""

    def __init__(self, counts: Counter):
        self.counts = counts
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.counts["gc.pause_s"] += perf_counter() - self._started
        if info.get("generation") == 2:
            self.counts["gc.full_collections"] += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class DeltaApplications:
    """Delta applications inside a block, read off the program's own counter.

    `materializer.delta_applications` counts every application, on the
    plain and the cached chain alike; reading it costs nothing per call,
    where a span around `apply_delta` would slow the traced pass.  When
    the program no longer has the counter the metric is absent.
    """

    NAME = "materializer.delta_applications"

    def __init__(self, counts: Counter, absent: set[str]):
        module = importlib.import_module("chrono_rdf.materializer")
        self.counter = getattr(module, "delta_applications", None)
        if not hasattr(self.counter, "count"):
            self.counter = None
            absent.add(self.NAME)
        self.counts = counts
        self._started = 0

    def __enter__(self) -> "DeltaApplications":
        if self.counter is not None:
            self._started = self.counter.count
        return self

    def __exit__(self, *exc) -> None:
        if self.counter is not None:
            self.counts[self.NAME] += self.counter.count - self._started


def peak_rss_mb() -> float:
    """This process's own peak RSS in MB, read as VmHWM.

    Not `getrusage`: on exec Linux carries the parent's high-water mark
    over into the child's `ru_maxrss`, so a child would report at least
    the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


# -- per-layer metrics ---------------------------------------------------------


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and self time."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _request in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "dur": 0.0, "self": 0.0})
    for (name, start, end, _parent, _request), inner in zip(spans, children):
        entry = out[name]
        entry["n"] += 1
        entry["dur"] += end - start
        entry["self"] += end - start - inner
    return dict(out)


def merge(parts: Iterable[dict]) -> dict:
    """Sum summaries and counters of several processes or passes."""
    summary: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    for part in parts:
        for name, entry in part["summary"].items():
            into = summary.setdefault(name, {"n": 0, "dur": 0.0, "self": 0.0})
            for key in into:
                into[key] += entry[key]
        counts.update(part["counts"])
    return {"summary": summary, "counts": counts}


# metric -> (depends on span, unit)
SETUP_METRICS = {
    "rdf_model.parse_s": ("rdf_model.parse_document", "s/setup"),
    "rdf_model.parse_mb_per_s": ("rdf_model.parse_document", "MB/s"),
    "sources.load_s": ("sources.load_sources", "s/setup"),
    "sources.delta_records_s": ("sources.delta_records", "s/setup"),
    "sources.update_records": ("sources.delta_records", "count/setup"),
    "sources.histories_loaded": ("provenance.load_history", "count/setup"),
    "provenance.load_history_s": ("provenance.load_history", "s/setup"),
    "sparql_engine.parse_update_s": ("sparql_engine.parse_update", "s/setup"),
    "sparql_engine.updates_parsed": ("sparql_engine.parse_update", "count/setup"),
}
REQUEST_METRICS = {
    "version_query.text_search_s": ("version_query.search_deltas", "s/req"),
    "version_query.text_search_calls": ("version_query.search_deltas", "count/req"),
    "version_query.records_scanned": ("version_query.search_deltas", "count/req"),
    "version_query.text_candidates": ("version_query.search_deltas", "count/req"),
    "version_query.relevant_entities": ("version_query.explicate", "count/req"),
    "version_query.discovery_yield": ("version_query.explicate", "ratio"),
    "version_query.discovery_s": ("version_query.explicate", "s/req"),
    "version_query.classify_s": ("version_query.classify", "s/req"),
    "materializer.chain_s": ("materializer.chain", "s/req"),
    "materializer.delta_applications": (DeltaApplications.NAME, "count/req"),
    "materializer.versions_built": ("materializer.chain", "count/req"),
    "version_query.align_s": ("version_query.align_and_merge", "s/req"),
    "version_query.timeline_keys": ("version_query.align_and_merge", "count/req"),
    "version_query.merged_quads_per_key": ("version_query.align_and_merge", "count"),
    "sparql_engine.evaluate_s": ("sparql_engine.evaluate", "s/req"),
    "sparql_engine.evaluate_calls": ("sparql_engine.evaluate", "count/req"),
    "sparql_engine.triple_index_builds": ("sparql_engine.TripleIndex", "count/req"),
    "sparql_engine.changed_answer_ratio": (None, "ratio"),
    "delta_query.report_s": ("delta_query.execute_delta_query", "s/req"),
    "delta_query.records": (None, "count/req"),
    "cli.self_s": ("cli.main", "s/req"),
    "cli.output_bytes": (None, "count/req"),
    "gc.pause_s": (None, "s/req"),
    "gc.full_collections": (None, "count/req"),
}
# on whole-history these come from the traced CLI call that ends the run
CLI_METRICS = ("cli.self_s", "cli.output_bytes")
UNITS = {name: unit for table in (SETUP_METRICS, REQUEST_METRICS)
         for name, (_span, unit) in table.items()}
UNITS["trace.overhead_ratio"] = "ratio"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(setup: dict, setup_units: int, requests: dict, request_units: int,
                  absent: set[str]) -> dict[str, float]:
    """Per-setup and per-request figures from merged summaries and counters."""
    s_sum, s_counts = setup["summary"], setup["counts"]
    r_sum, r_counts = requests["summary"], requests["counts"]

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0.0)

    def per_setup(value):
        return _ratio(value, setup_units)

    def per_request(value):
        return _ratio(value, request_units)

    parse_dur = get(s_sum, "rdf_model.parse_document", "dur")
    values = {
        "rdf_model.parse_s": per_setup(parse_dur),
        "rdf_model.parse_mb_per_s": _ratio(s_counts.get("rdf_model.parse_chars", 0) / 1e6,
                                           parse_dur),
        "sources.load_s": per_setup(get(s_sum, "sources.load_sources", "self")),
        "sources.delta_records_s": per_setup(get(s_sum, "sources.delta_records", "dur")),
        "sources.update_records": per_setup(s_counts.get("sources.delta_records_returned", 0)),
        "sources.histories_loaded": per_setup(get(s_sum, "provenance.load_history", "n")),
        "provenance.load_history_s": per_setup(get(s_sum, "provenance.load_history", "self")),
        "sparql_engine.parse_update_s": per_setup(get(s_sum, "sparql_engine.parse_update", "dur")),
        "sparql_engine.updates_parsed": per_setup(get(s_sum, "sparql_engine.parse_update", "n")),
        "version_query.text_search_s": per_request(get(r_sum, "version_query.search_deltas", "dur")),
        "version_query.text_search_calls": per_request(get(r_sum, "version_query.search_deltas", "n")),
        "version_query.records_scanned": per_request(r_counts.get("version_query.records_scanned", 0)),
        "version_query.text_candidates": per_request(r_counts.get("version_query.text_candidates", 0)),
        "version_query.relevant_entities": per_request(
            r_counts.get("version_query.relevant_entities", 0)),
        "version_query.discovery_yield": _ratio(r_counts.get("discovery.bound", 0),
                                                r_counts.get("discovery.relevant", 0)),
        "version_query.discovery_s": per_request(get(r_sum, "version_query.explicate", "self")),
        "version_query.classify_s": per_request(get(r_sum, "version_query.classify", "dur")),
        "materializer.chain_s": per_request(get(r_sum, "materializer.chain", "dur")),
        "materializer.delta_applications": per_request(
            r_counts.get("materializer.delta_applications", 0)),
        "materializer.versions_built": per_request(r_counts.get("materializer.versions_built", 0)),
        "version_query.align_s": per_request(get(r_sum, "version_query.align_and_merge", "dur")),
        "version_query.timeline_keys": per_request(r_counts.get("version_query.timeline_keys", 0)),
        "version_query.merged_quads_per_key": _ratio(r_counts.get("version_query.merged_quads", 0),
                                                     r_counts.get("version_query.timeline_keys", 0)),
        "sparql_engine.evaluate_s": per_request(get(r_sum, "sparql_engine.evaluate", "dur")),
        "sparql_engine.evaluate_calls": per_request(get(r_sum, "sparql_engine.evaluate", "n")),
        "sparql_engine.triple_index_builds": per_request(
            r_counts.get("sparql_engine.triple_index_builds", 0)),
        "sparql_engine.changed_answer_ratio": _ratio(r_counts.get("answers.changed_keys", 0),
                                                     r_counts.get("answers.keys", 0)),
        "delta_query.report_s": per_request(get(r_sum, "delta_query.execute_delta_query", "self")),
        "delta_query.records": per_request(r_counts.get("delta_query.records", 0)),
        "cli.self_s": per_request(get(r_sum, "cli.main", "self")),
        "cli.output_bytes": per_request(r_counts.get("cli.output_bytes", 0)),
        "gc.pause_s": per_request(r_counts.get("gc.pause_s", 0.0)),
        "gc.full_collections": per_request(r_counts.get("gc.full_collections", 0)),
    }
    for table in (SETUP_METRICS, REQUEST_METRICS):
        for metric, (span, _unit) in table.items():
            if span in absent:
                values.pop(metric, None)
    return values
