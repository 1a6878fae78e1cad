"""Exception types shared across the package."""


class UnsatisfiableError(Exception):
    """The requested color change cannot be realized by any word.

    Raised when an isolated vertex would have to change color: a local
    inversion never touches an isolated vertex, so its color is invariant.
    """


class VerificationError(Exception):
    """A certified word failed bit-exact replay verification."""


class BoundExceededError(Exception):
    """A synthesized word is longer than its certified bound.

    Carries enough context to reproduce the offending instance.
    """

    def __init__(self, message: str, *, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class CapExceededError(RuntimeError):
    """Exhaustive search would pass ``oracle.MAX_CAP`` vertices or ``oracle.MAX_STATES`` states."""


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
