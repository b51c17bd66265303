"""Classification corpus: fourteen queries with hand-worked expectations.

Each entry lists which pattern indexes (in parse order) are joined and
which are isolated; `unbounded` marks the query that must be refused
because an isolated pattern carries no ground term.
"""

from __future__ import annotations

from dataclasses import dataclass

E = "https://k.example/e"
E2 = "https://k.example/e2"
CITES = "http://v.example/cites"
HAS_ID = "http://v.example/hasId"
VALUE = "http://v.example/value"
SCHEME = "http://v.example/scheme"
KNOWS = "http://v.example/knows"
ORCID = "http://v.example/orcid"


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    joined: tuple[int, ...]
    isolated: tuple[int, ...]
    unbounded: bool = False


CASES = [
    Case(
        "anchored-single",
        f"SELECT ?o WHERE {{ <{E}> <{CITES}> ?o }}",
        joined=(0,), isolated=(),
    ),
    Case(
        "inverse-lookup",
        f"SELECT ?s WHERE {{ ?s <{CITES}> <{E2}> }}",
        joined=(), isolated=(0,),
    ),
    Case(
        "unbounded",
        "SELECT * WHERE { ?s ?p ?o }",
        joined=(), isolated=(0,), unbounded=True,
    ),
    Case(
        "anchored-chain-with-optional",
        f"SELECT DISTINCT ?br ?id ?v WHERE {{ <{E}> <{CITES}> ?br ."
        f" ?br <{HAS_ID}> ?id . OPTIONAL {{ ?id <{VALUE}> ?v }} }}",
        joined=(0, 1, 2), isolated=(),
    ),
    Case(
        "anchored-plus-island",
        f"SELECT ?br ?x WHERE {{ <{E}> <{CITES}> ?br . ?x <{SCHEME}> <{ORCID}> }}",
        joined=(0,), isolated=(1,),
    ),
    Case(
        "anchored-chain",
        f"SELECT DISTINCT ?br ?id ?value WHERE {{ <{E}> <{CITES}> ?br ."
        f" ?br <{HAS_ID}> ?id . ?id <{VALUE}> ?value }}",
        joined=(0, 1, 2), isolated=(),
    ),
    Case(
        "property-object-only",
        f"SELECT DISTINCT ?s WHERE {{ ?s <{SCHEME}> <{ORCID}> }}",
        joined=(), isolated=(0,),
    ),
    Case(
        "variable-chain-unanchored",
        f"SELECT ?a WHERE {{ ?a <{KNOWS}> ?b . ?b <{KNOWS}> <{E2}> }}",
        joined=(), isolated=(0, 1),
    ),
    Case(
        "reached-backwards",
        f"SELECT ?c WHERE {{ <{E}> <{KNOWS}> ?b . ?c <{KNOWS}> ?b }}",
        joined=(0,), isolated=(1,),
    ),
    Case(
        "literal-probe",
        f'SELECT ?s WHERE {{ ?s <{VALUE}> "10.1111/x" }}',
        joined=(), isolated=(0,),
    ),
    Case(
        "chain-plus-island",
        f"SELECT ?id ?z WHERE {{ <{E}> <{CITES}> ?br . ?br <{HAS_ID}> ?id ."
        f" ?x <{VALUE}> ?z }}",
        joined=(0, 1), isolated=(2,),
    ),
    Case(
        "regex-over-island",
        f'SELECT ?id ?v WHERE {{ ?id <{VALUE}> ?v . FILTER REGEX(?v, "\\\\.$") }}',
        joined=(), isolated=(0,),
    ),
    Case(
        "shared-predicate-island",
        f"SELECT ?b ?c WHERE {{ <{E}> <{CITES}> ?b . ?c <{CITES}> <{E2}> }}",
        joined=(0,), isolated=(1,),
    ),
    Case(
        "anchored-object",
        f"SELECT ?x ?id WHERE {{ ?x <{CITES}> <{E2}> . <{E2}> <{HAS_ID}> ?id }}",
        joined=(1,), isolated=(0,),
    ),
]
