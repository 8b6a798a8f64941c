"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FusionError",
    "UnknownLabel",
    "NotAGroup",
    "NotFinite",
    "NotSaturated",
    "UnsupportedProvider",
    "IllConditioned",
    "BadParameter",
    "ParseError",
    "InvalidRing",
]


_QUOTE_LIMIT = 60


def _clip(text: str) -> str:
    """``text`` itself, or when longer than ``_QUOTE_LIMIT`` characters
    its first ``_QUOTE_LIMIT`` characters and its length: how a message
    or detail names an id without quotes."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def _quote(value) -> str:
    """``repr(value)``, cut short when long: a message quotes input, and
    input may be any size.

    A string longer than ``_QUOTE_LIMIT`` characters is quoted as the
    repr of its first ``_QUOTE_LIMIT`` characters and its length; any
    other value (an id pair, a table entry or row) as its repr through
    ``_clip``.
    """
    if isinstance(value, str):
        if len(value) <= _QUOTE_LIMIT:
            return repr(value)
        return f"{value[:_QUOTE_LIMIT]!r}... ({len(value)} characters)"
    return _clip(repr(value))


class FusionError(Exception):
    """Base class for errors raised by this package."""


class UnknownLabel(FusionError):
    """A label id does not name an irreducible of the ring at hand."""


class NotFinite(FusionError):
    """Operation requires a ring with finitely many irreducibles."""


class NotSaturated(FusionError):
    """Operation requires a subset closed under conjugation and decomposition."""


class UnsupportedProvider(FusionError):
    """Operation is only defined for a narrower class of rings."""


class IllConditioned(FusionError):
    """Numerical rank decision has no stable gap at the requested tolerance."""


class BadParameter(FusionError):
    """Numeric construction called with out-of-domain parameters."""


class ParseError(FusionError):
    """Malformed ring spec or label string.

    ``position`` is the character offset the parser gave up at, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvalidRing(FusionError):
    """A ring table failed structural or axiom validation; carries the violations."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class NotAGroup(InvalidRing):
    """A group table fails a group axiom, named in the message: an invalid ring."""
