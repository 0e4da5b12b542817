"""Exception types shared across the package."""


class NoSignalError(RuntimeError):
    """Raised when a capture contains no detectable reference signal."""


class CaptureWindowError(ValueError):
    """Raised when a capture does not hold the samples that the receiver
    reads: the timing search window or the averaged chip periods, which
    sit at fixed times from the capture's origin."""
