"""Shared exception types, and the one decoder of input JSON that raises them."""

import json


class LinerigError(Exception):
    """Base class for errors raised by this package."""


class DomainError(LinerigError, ValueError):
    """An operation was called outside its documented domain."""


class GraphParseError(LinerigError, ValueError):
    """Graph text input is malformed; the message names the offending line or field."""


class StepError(LinerigError, ValueError):
    """A construction step is invalid; the message names the step position."""


class ConstructionError(LinerigError, RuntimeError):
    """An exhaustive search that a structure theorem guarantees to succeed found nothing.

    This signals a broken invariant and must never be swallowed.
    """


class ConvergenceError(LinerigError, RuntimeError):
    """An iterative solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CongruenceError(LinerigError, ValueError):
    """Two point lists are not congruent; carries the violating index pair."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


class SampleError(LinerigError, RuntimeError):
    """A randomized sampler ran out of retries; carries the retry log."""

    def __init__(self, message: str, log: list[str]):
        super().__init__(message)
        self.log = log


def load_json(text: str, what: str, error: type[LinerigError]) -> object:
    """Decode an input file's JSON. Bad JSON, integers past the digit limit (both
    ValueError) and too deep nesting (RecursionError) raise `error` naming `what`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON in {what}: {exc}") from None
