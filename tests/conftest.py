"""Shared fixtures: a hand-built DOI correction world and generated corpora."""

from __future__ import annotations

import pytest

from chrono_rdf import GraphSet, iri, literal, quad, render_update, serialize
from chrono_rdf.benchgen import GenSpec, GeneratedWorld, generate

BASE = "https://opencitations.example/"
BR = BASE + "br/86766"
ID = BASE + "id/80178"
BR_GRAPH = BASE + "br/"
ID_GRAPH = BASE + "id/"
PROV_GRAPH = BASE + "prov/"

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
CITES = "http://purl.org/spar/cito/cites"
TITLE = "http://purl.org/dc/terms/title"
HAS_IDENTIFIER = "http://purl.org/spar/datacite/hasIdentifier"
IDENTIFIER = "http://purl.org/spar/datacite/Identifier"
USES_SCHEME = "http://purl.org/spar/datacite/usesIdentifierScheme"
DOI_SCHEME = "http://purl.org/spar/datacite/doi"
HAS_VALUE = "http://www.essepuntato.it/2010/06/literalreification/hasLiteralValue"

PROV = "http://www.w3.org/ns/prov#"
DESCRIPTION = "http://purl.org/dc/terms/description"
HAS_UPDATE = "https://w3id.org/oc/ontology/hasUpdateQuery"

WRONG_DOI = "10.1111/j.1365-2648.2012.06023.x."
RIGHT_DOI = "10.1111/j.1365-2648.2012.06023.x"
AGENT = "https://orcid.org/0000-0002-8420-0696"
CREATED_AT = "2021-10-10T23:44:45"
FIXED_AT = "2021-10-19T19:55:55"

CITED = [f"{BASE}br/{n}" for n in (301102, 301438, 301653, 304343, 510156)]

DOI_UPDATE = (
    "DELETE DATA { GRAPH <" + ID_GRAPH + "> { <" + ID + "> <" + HAS_VALUE + "> "
    '"' + WRONG_DOI + '"^^<' + XSD_STRING + "> . } }; "
    "INSERT DATA { GRAPH <" + ID_GRAPH + "> { <" + ID + "> <" + HAS_VALUE + "> "
    '"' + RIGHT_DOI + '"^^<' + XSD_STRING + "> . } }"
)


def _doi_data() -> GraphSet:
    quads = {
        quad(iri(BR), iri(TITLE),
             literal("Referring Expressions And Their Use"), BR_GRAPH),
        quad(iri(BR), iri(HAS_IDENTIFIER), iri(ID), BR_GRAPH),
        quad(iri(ID), iri(RDF_TYPE), iri(IDENTIFIER), ID_GRAPH),
        quad(iri(ID), iri(USES_SCHEME), iri(DOI_SCHEME), ID_GRAPH),
        quad(iri(ID), iri(HAS_VALUE), literal(RIGHT_DOI, XSD_STRING), ID_GRAPH),
    }
    for cited in CITED:
        quads.add(quad(iri(BR), iri(CITES), iri(cited), BR_GRAPH))
    return frozenset(quads)


def _doi_provenance() -> GraphSet:
    se1 = ID + "/prov/se/1"
    se2 = ID + "/prov/se/2"
    br_se1 = BR + "/prov/se/1"
    g = PROV_GRAPH

    def dt(value: str):
        return literal(value, XSD_DATETIME)

    quads = {
        quad(iri(se1), iri(RDF_TYPE), iri(PROV + "Entity"), g),
        quad(iri(se1), iri(PROV + "specializationOf"), iri(ID), g),
        quad(iri(se1), iri(PROV + "generatedAtTime"), dt(CREATED_AT), g),
        quad(iri(se1), iri(PROV + "invalidatedAtTime"), dt(FIXED_AT), g),
        quad(iri(se1), iri(PROV + "wasAttributedTo"), iri(AGENT), g),
        quad(iri(se1), iri(PROV + "hadPrimarySource"),
             iri("https://api.crossref.org/works/" + RIGHT_DOI), g),
        quad(iri(se1), iri(DESCRIPTION),
             literal(f"The entity '{ID}' has been created."), g),
        quad(iri(se2), iri(RDF_TYPE), iri(PROV + "Entity"), g),
        quad(iri(se2), iri(PROV + "specializationOf"), iri(ID), g),
        quad(iri(se2), iri(PROV + "generatedAtTime"), dt(FIXED_AT), g),
        quad(iri(se2), iri(PROV + "wasAttributedTo"), iri(AGENT), g),
        quad(iri(se2), iri(PROV + "wasDerivedFrom"), iri(se1), g),
        quad(iri(se2), iri(DESCRIPTION),
             literal(f"The entity '{ID}' has been modified."), g),
        quad(iri(se2), iri(HAS_UPDATE), literal(DOI_UPDATE), g),
        quad(iri(br_se1), iri(RDF_TYPE), iri(PROV + "Entity"), g),
        quad(iri(br_se1), iri(PROV + "specializationOf"), iri(BR), g),
        quad(iri(br_se1), iri(PROV + "generatedAtTime"), dt(CREATED_AT), g),
        quad(iri(br_se1), iri(PROV + "wasAttributedTo"), iri(AGENT), g),
        quad(iri(br_se1), iri(DESCRIPTION),
             literal(f"The entity '{BR}' has been created."), g),
    }
    return frozenset(quads)


DOI_DATA = _doi_data()
DOI_PROVENANCE = _doi_provenance()

DOI_DATA_TURTLE = f"""\
@prefix cito: <http://purl.org/spar/cito/> .
@prefix datacite: <http://purl.org/spar/datacite/> .
@prefix dcterms: <http://purl.org/dc/terms/> .
@prefix literal: <http://www.essepuntato.it/2010/06/literalreification/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@base <{BASE}> .

<br/86766> dcterms:title "Referring Expressions And Their Use" ;
    cito:cites <br/301102>, <br/301438>, <br/301653>, <br/304343>, <br/510156> ;
    datacite:hasIdentifier <id/80178> .

<id/80178> a datacite:Identifier ;
    datacite:usesIdentifierScheme datacite:doi ;
    literal:hasLiteralValue "{RIGHT_DOI}"^^xsd:string .
"""


# Entities whose updates only delete, as a delta report sees them.  Each
# history is (time, version) pairs; its stored updates are the diffs.
EMPTIED = "https://emptied.example/"
EMPTIED_TIMES = [f"2022-03-0{d}T00:00:00" for d in range(1, 6)]


def _emptied_quad(entity: str, name: str):
    return quad(iri(entity), iri(EMPTIED + "p/" + name), literal(name), EMPTIED + "g/")


def _emptied_history(entity: str, *versions: str) -> list[tuple[str, frozenset]]:
    """(time, version) pairs, each version named by its quads' letters."""
    return [
        (when, frozenset(_emptied_quad(entity, name) for name in names))
        for when, names in zip(EMPTIED_TIMES, versions)
    ]


# the update after snapshot 2 deletes, so version 2 is decided without a
# walk; the update after snapshot 3 only inserts, so version 3 (empty) is
# walked to; snapshot 5 empties the entity again
EMPTIED_WALKED = EMPTIED + "br/walked"
# snapshot 2 is the latest and empties the entity: the live data decides
EMPTIED_LIVE = EMPTIED + "br/live"
# version 2 is decided by the deletes after it, version 3 by the live data
EMPTIED_KEPT = EMPTIED + "br/kept"
EMPTIED_VERSIONS = {
    EMPTIED_WALKED: _emptied_history(EMPTIED_WALKED, "ab", "b", "", "c", ""),
    EMPTIED_LIVE: _emptied_history(EMPTIED_LIVE, "a", ""),
    EMPTIED_KEPT: _emptied_history(EMPTIED_KEPT, "abc", "bc", "c"),
}


def _emptied_provenance() -> GraphSet:
    g = EMPTIED + "prov/"
    quads = set()
    for entity, timeline in EMPTIED_VERSIONS.items():
        previous = frozenset()
        for n, (when, version) in enumerate(timeline, 1):
            se = iri(f"{entity}/prov/se/{n}")
            quads.add(quad(se, iri(PROV + "specializationOf"), iri(entity), g))
            quads.add(quad(se, iri(PROV + "generatedAtTime"), literal(when, XSD_DATETIME), g))
            if n > 1:
                update = render_update(sorted(previous - version), sorted(version - previous))
                derived = iri(f"{entity}/prov/se/{n - 1}")
                quads.add(quad(se, iri(PROV + "wasDerivedFrom"), derived, g))
                quads.add(quad(se, iri(HAS_UPDATE), literal(update), g))
            previous = version
    return frozenset(quads)


EMPTIED_DATA = frozenset(q for timeline in EMPTIED_VERSIONS.values() for q in timeline[-1][1])
EMPTIED_PROVENANCE = _emptied_provenance()


@pytest.fixture()
def doi_data() -> GraphSet:
    return DOI_DATA


@pytest.fixture()
def doi_provenance() -> GraphSet:
    return DOI_PROVENANCE


@pytest.fixture()
def doi_files(tmp_path):
    data_path = tmp_path / "data.nq"
    prov_path = tmp_path / "provenance.nq"
    data_path.write_text(serialize(DOI_DATA), encoding="utf-8")
    prov_path.write_text(serialize(DOI_PROVENANCE), encoding="utf-8")
    return data_path, prov_path


@pytest.fixture(scope="session")
def small_world() -> GeneratedWorld:
    # seed chosen so the corpus holds deleted entities, among them an
    # identifier using the orcid scheme, next to surviving ones
    return generate(GenSpec(seed=2, n_entities=24))


@pytest.fixture(scope="session")
def big_world() -> GeneratedWorld:
    return generate(GenSpec())
