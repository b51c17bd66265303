"""Exception types shared across the engine.

Every error raised on purpose by this package derives from ChronoRdfError,
so callers can catch one base class at the boundary.  The CLI maps these
onto exit codes: configuration and source trouble exits 3, domain errors
(asking for a version before an entity existed, unsupported query forms,
and so on) exit 4.
"""

from __future__ import annotations


class ChronoRdfError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ChronoRdfError):
    """A document or query could not be parsed.

    Carries the 1-based line and column of the offending token when the
    parser knows them.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnknownPrefix(ParseError):
    """A prefixed name used a prefix that was never declared."""

    def __init__(self, prefix: str, line: int | None = None, column: int | None = None):
        self.prefix = prefix
        super().__init__(f"unknown prefix '{prefix}:'", line, column)


class UnsupportedFeature(ChronoRdfError):
    """The query uses a SPARQL feature outside the supported subset."""

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"unsupported query feature: {feature}")


class VariableInDelta(ChronoRdfError):
    """An update string contained a variable; deltas must be ground."""


class PrefixInDelta(ChronoRdfError):
    """An update string used prefixed names; deltas must spell IRIs out."""


class BadRegex(ChronoRdfError):
    """A FILTER pattern did not compile as a regular expression."""


class NoHistory(ChronoRdfError):
    """No snapshot describes the given entity."""

    def __init__(self, entity: str):
        self.entity = entity
        super().__init__(f"no snapshot history recorded for <{entity}>")


class BrokenChain(ChronoRdfError):
    """Snapshot metadata is inconsistent and no total order exists."""


class BadDelta(ChronoRdfError):
    """A snapshot's update string could not be parsed."""

    def __init__(self, snapshot: str, cause: Exception):
        self.snapshot = snapshot
        self.cause = cause
        super().__init__(f"snapshot <{snapshot}> carries an unusable update: {cause}")


class BeforeCreation(ChronoRdfError):
    """A version was requested from before the entity's first snapshot."""

    def __init__(self, entity: str, requested: str, created: str):
        self.entity = entity
        self.requested = requested
        self.created = created
        super().__init__(
            f"<{entity}> did not exist at {requested}; first snapshot is {created}"
        )


class NoSuchSnapshot(ChronoRdfError):
    """A snapshot was referenced by id but is not part of the history."""


class UnboundedQuery(ChronoRdfError):
    """Every pattern is isolated and none carries a ground term.

    Such a query would require materialising the whole dataset at every
    point in time, so it is refused up front.
    """


class ExplosionLimit(ChronoRdfError):
    """Entity discovery exceeded the configured limit."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"query touches more than {limit} entities; refusing to continue")


class ConfigError(ChronoRdfError):
    """The source configuration is missing, malformed, or incomplete."""


class NetworkError(ChronoRdfError):
    """A SPARQL endpoint could not be reached or answered with an error."""

    def __init__(self, url: str, status: int | None, message: str):
        self.url = url
        self.status = status
        super().__init__(f"{url}: {message}")


class SpecError(ChronoRdfError):
    """A generator specification holds out-of-range values."""
