"""Exception types shared across the package, and the time cap's one check."""

from time import monotonic


class SigbasisError(Exception):
    """Base class for all library errors."""


class StructureError(SigbasisError):
    """Mismatched widths, ranks, or contexts between operands."""


class ContractError(SigbasisError):
    """An operation was called outside its stated precondition."""


class CertificateError(SigbasisError):
    """A completed run failed its own rewrite-basis certificate."""


class ParseError(SigbasisError):
    """Malformed input text; carries a 1-based line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class LimitExceeded(SigbasisError):
    """A configured insertion or time cap was hit; carries partial state."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def check_deadline(deadline, during="", partial=None):
    """Raise ``LimitExceeded("time cap exceeded" + during)`` once
    ``time.monotonic()`` is past ``deadline``; ``None`` is no cap.
    ``partial``, when given, is called for the partial result to carry."""
    if deadline is not None and monotonic() > deadline:
        raise LimitExceeded("time cap exceeded" + during, partial and partial())
