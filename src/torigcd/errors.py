"""Exception taxonomy shared across the package.

ParseError covers malformed text input, UsageError input over a cap or out
of range; HypothesisError covers violated theorem hypotheses (the CLI maps
them to distinct exit codes).  A HypothesisError carries a JSON-serializable
certificate explaining the rejection.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed expression or literal."""


class UsageError(ValueError):
    """Input the toolkit declines to run: over a cap, or an option out of range."""


class HypothesisError(ValueError):
    """A required hypothesis fails; .certificate documents why."""

    def __init__(self, message: str, certificate: dict | None = None):
        super().__init__(message)
        self.certificate = certificate or {}
