"""Exception types shared across the package."""


class NoSignalError(RuntimeError):
    """Raised when a capture contains no detectable reference signal."""

