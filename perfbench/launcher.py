"""Child process of `cli-oneshot`: one CLI call, measured from inside.

Usage: python -m perfbench.launcher OUT.json TRACE -- CLI-ARGS...

Calls `chrono_rdf.cli.main` with the given arguments and exits with its
code, just as `python -m chrono_rdf.cli` would.  It always times the
CLI's `load_sources` call (the call's set-up).  With TRACE 1 it first
installs every hook, observes the collector, wraps `cli.main` in a span,
and writes the spans to OUT.json after the call returns.
"""

from __future__ import annotations

import json
import sys

from chrono_rdf import cli

from . import spans


def main(argv: list[str]) -> int:
    out_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    recorder = spans.Recorder()
    hooks = spans.Hooks(recorder)
    if trace:
        hooks.install(spans.HOOKS).install(spans.CLI_HOOKS).count_index_builds()
    else:
        hooks.install([spans.CLI_LOAD_HOOK])
    recorder.request = 0
    if trace:
        with spans.GcWatch(recorder.counts), \
                spans.DeltaApplications(recorder.counts, hooks.absent):
            code = recorder.call("cli.main", cli.main, cli_args)
    else:
        code = cli.main(cli_args)
    sys.stdout.flush()
    data = recorder.take()
    load_s = [end - start for name, start, end, _p, _r in data["spans"]
              if name == "sources.load_sources"]
    document = {"load_s": load_s, "absent": sorted(hooks.absent),
                "peak_rss_mb": spans.peak_rss_mb()}
    if trace:
        document.update(data)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(document, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
