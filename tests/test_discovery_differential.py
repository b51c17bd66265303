"""Discovery checked against the whole ledger, not the engine's own scope.

For each query the engine answers over an interval, and at every ledger
snapshot time inside it its answer at the newest key at or before that
time must equal the brute-force answer over the states of all entities
of the world, relevant or not.  Before its first key the engine answers
nothing: over an interval open at the start that means the empty
answer; over a closed one, the state at the start, which is the
engine's single-version answer there.

The shapes are those discovery once got wrong: an isolated pattern
inside OPTIONAL, a chase that runs through OPTIONAL joined patterns,
and an isolated pattern without any ground term, which must be refused.
Two joins that discovery still gets wrong, because they bind an entity
only as the subject of a backward join, are expected to fail.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import pytest

from oracles import answers_over_time, brute_evaluate, dataset_brute, solutions_counter

from chrono_rdf import (
    TimeInterval,
    UnboundedQuery,
    execute_version_query,
    format_timestamp,
    parse_select,
)
from chrono_rdf.benchgen import (
    BASE_IRI,
    CITO_CITES,
    DATACITE_DOI,
    DATACITE_HAS_IDENTIFIER,
    DATACITE_ORCID,
    DATACITE_USES_SCHEME,
    LITERAL_HAS_VALUE,
    known_subject_query,
    scheme_query,
    value_regex_query,
)

# ledger times the intervals cover at most, to keep the 1000-entity world fast
SPAN = 400


def _objects(state, predicate: str) -> list:
    return [q.object for q in state or () if q.predicate.value == predicate]


def _queries(world, when) -> dict[str, str]:
    """The queries, with a seed and a value chosen so that the shapes
    discovery once got wrong have rows at `when`."""
    states = {name: truth.version_at(when) for name, truth in sorted(world.ledger.entities.items())}

    def identified(work) -> bool:
        return any(_objects(states.get(i.value), LITERAL_HAS_VALUE)
                   for i in _objects(states.get(work.value), DATACITE_HAS_IDENTIFIER))

    # a work citing a work whose identifier has a value
    seed = next(
        name for name, state in states.items()
        if any(identified(cited) for cited in _objects(state, CITO_CITES))
    )
    # the value of an identifier that does not use the orcid scheme
    value = next(
        _objects(state, LITERAL_HAS_VALUE)[0]
        for state in states.values()
        if _objects(state, LITERAL_HAS_VALUE)
        and DATACITE_ORCID not in {o.value for o in _objects(state, DATACITE_USES_SCHEME)}
    )
    return {
        "optional-isolated": (
            f"SELECT ?s ?x WHERE {{ ?s <{DATACITE_USES_SCHEME}> <{DATACITE_ORCID}> ."
            f" OPTIONAL {{ ?x <{LITERAL_HAS_VALUE}> {value.n3()} }} }}"
        ),
        "chase-through-optional": (
            f"SELECT ?br ?id ?v WHERE {{ <{seed}> <{CITO_CITES}> ?br ."
            f" OPTIONAL {{ ?br <{DATACITE_HAS_IDENTIFIER}> ?id ."
            f" ?id <{LITERAL_HAS_VALUE}> ?v }} }}"
        ),
        "known-subject": known_subject_query(seed),
        "scheme": scheme_query(),
        "value-regex": value_regex_query(),
    }


def _intervals(world) -> dict[str, TimeInterval]:
    times = world.ledger.change_times()
    end = times[min(SPAN, len(times) - 1)]
    return {
        "open": TimeInterval(None, end),
        "closed": TimeInterval(times[SPAN // 4], end),
    }


QUERIES = ("optional-isolated", "chase-through-optional", "known-subject", "scheme", "value-regex")


@pytest.fixture(scope="module", params=["small_world", "big_world"])
def world_case(request):
    world = request.getfixturevalue(request.param)
    return world, world.context(), _intervals(world)


def _wrong_times(world, ctx, query, interval) -> tuple[list, int]:
    """The ledger times in interval at which the engine's answer is not
    the brute-force answer over the whole ledger, and how many there are
    in interval."""
    outcome = execute_version_query(query, ctx, interval=interval)
    keys = outcome.timeline.times
    before_first_key = Counter()
    if interval.start is not None:
        at_start = execute_version_query(query, ctx, at=interval.start)
        before_first_key = solutions_counter(next(iter(at_start.results.values())))

    times = [t for t in world.ledger.change_times() if t in interval]
    expected = answers_over_time(query, world.ledger.entities, times)
    wrong = []
    for when, truth in zip(times, expected):
        k = bisect_right(keys, when)
        if k:
            got = solutions_counter(outcome.results[format_timestamp(keys[k - 1])])
        else:
            got = before_first_key
        if got != truth:
            wrong.append(when)
    return wrong, len(times)


@pytest.mark.parametrize("interval_name", ["open", "closed"])
@pytest.mark.parametrize("which", QUERIES)
def test_answers_equal_the_whole_ledger(world_case, which, interval_name):
    world, ctx, intervals = world_case
    interval = intervals[interval_name]
    query = parse_select(_queries(world, interval.end)[which])
    wrong, checked = _wrong_times(world, ctx, query, interval)
    assert not wrong, f"{len(wrong)} of {checked} times differ, first at {wrong[0]}"


BACKWARD_JOINS = {
    "backward-join": "SELECT ?b ?c WHERE {{ <{e}> <{cites}> ?b . ?c <{cites}> ?b }}",
    "backward-two-hop": (
        "SELECT ?b ?c ?id WHERE {{ <{e}> <{cites}> ?b . ?c <{cites}> ?b ."
        " ?c <{has_id}> ?id }}"
    ),
}


# Discovery promotes only IRIs bound to some pattern's subject variable,
# so a ?c that only `?c cites ?b` binds is never materialised.  On the
# small world, anchored on br/0, the answers differ at most ledger times;
# the fix of that defect must turn these into passes.
@pytest.mark.xfail(strict=True, reason="discovery does not follow a join backwards")
@pytest.mark.parametrize("which", BACKWARD_JOINS)
def test_backward_joins_equal_the_whole_ledger(small_world, which):
    text = BACKWARD_JOINS[which].format(
        e=BASE_IRI + "br/0", cites=CITO_CITES, has_id=DATACITE_HAS_IDENTIFIER
    )
    interval = _intervals(small_world)["open"]
    wrong, checked = _wrong_times(small_world, small_world.context(), parse_select(text), interval)
    assert not wrong, f"{len(wrong)} of {checked} times differ, first at {wrong[0]}"


def test_an_isolated_pattern_without_ground_terms_is_refused(world_case):
    _world, ctx, intervals = world_case
    text = (
        f"SELECT DISTINCT ?a WHERE {{ ?s <{DATACITE_USES_SCHEME}> <{DATACITE_DOI}> ."
        " ?a ?b ?c }"
    )
    with pytest.raises(UnboundedQuery):
        execute_version_query(text, ctx, interval=intervals["open"])


def test_the_forward_walk_equals_the_brute_states(small_world):
    # answers_over_time keeps only the quads a pattern could match and
    # walks the ledger forward; over the small world it must agree with
    # brute_evaluate over dataset_brute of every entity at every time
    for text in _queries(small_world, small_world.ledger.change_times()[-1]).values():
        query = parse_select(text)
        times = small_world.ledger.change_times()
        fast = answers_over_time(query, small_world.ledger.entities, times)
        for when, answer in zip(times, fast):
            assert answer == brute_evaluate(
                query, dataset_brute(small_world.ledger.entities, when)
            ), (text, when)
