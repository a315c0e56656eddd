"""Exception hierarchy.

The CLI maps these to exit codes through ``exit_code``: validation errors
(and any other library error) exit 2, numerical errors exit 3,
hypothesis-check failures exit 4; ``prefix`` starts the message it prints.
"""

import inspect


class WContrastError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    prefix = "error"


class ValidationError(WContrastError):
    """Bad parameters, malformed inputs, or violated construction invariants."""

    prefix = "validation error"


class DomainError(ValidationError):
    """An argument outside the mathematical domain of an operation."""


class NumericalError(WContrastError):
    """A numerical procedure failed or two routes disagreed beyond contract."""

    exit_code = 3
    prefix = "numerical error"


class TruncationError(NumericalError):
    """The bound on a truncated tail exceeds the requested tolerance."""


class IntegrabilityError(NumericalError):
    """A tail integral diverges (or its bound exceeds tolerance)."""


class HypothesisError(WContrastError):
    """An assumption checker failed and no override was given."""

    exit_code = 4
    prefix = "hypothesis-check failure"


def call_with_params(fn, params: dict, what: str):
    """fn(**params), with ``params`` bound to fn's signature first: an
    unknown or missing parameter raises ValidationError naming ``what``
    and the key, not a TypeError."""
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    return fn(**params)
