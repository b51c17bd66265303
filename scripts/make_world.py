#!/usr/bin/env python3
"""Generate a synthetic corpus and a ready-to-use source configuration.

Writes data.nq, provenance.nq, the oracle ledger, and a sources.json
pointing at them, so the CLI can be used immediately:

    python3 scripts/make_world.py --out /tmp/world --entities 50
    echo 'SELECT ?s ?v WHERE { ?s <http://www.essepuntato.it/2010/06/literalreification/hasLiteralValue> ?v }' \
        | chrono-rdf --config /tmp/world/sources.json query --file -
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chrono_rdf.benchgen import GenSpec, generate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--entities", type=int, default=50)
    ap.add_argument("--snapshot-mean", type=float, default=20.0)
    ap.add_argument("--no-ledger", action="store_true")
    args = ap.parse_args()

    spec = GenSpec(
        seed=args.seed, n_entities=args.entities, snapshot_mean=args.snapshot_mean
    )
    world = generate(spec)
    out = Path(args.out)
    world.save(out, include_ledger=not args.no_ledger)

    config = {
        "data": [str(out / "data.nq")],
        "provenance": [str(out / "provenance.nq")],
    }
    (out / "sources.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )

    times = world.ledger.change_times()
    print(json.dumps({
        "out": str(out),
        "entities": len(world.ledger.entities),
        "data_quads": len(world.data),
        "provenance_quads": len(world.provenance),
        "first_change": times[0].isoformat(),
        "last_change": times[-1].isoformat(),
        "config": str(out / "sources.json"),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
