"""Calibration of wall times against the machine's speed of the moment.

On the shared two-vCPU host this benchmark was tuned on, the same
campaign takes from 5.9 to 8.2 s within minutes as other tenants come
and go, and the medians of 30-second runs spread 12 to 20%
(interquartile range over median). A fixed reference kernel, timed
often while the campaign runs, tracks that drift: dividing by it
brought the spread to 3 to 6%. A calibrated time is the wall time the
work would take at the speed where the reference kernel takes
REFERENCE_S. The kernel belongs to the benchmark, never to the
program, so a change to chansounder moves calibrated times exactly as
it moves wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import tracer

# usual reference_kernel() time on the tuning host (Intel Xeon, numpy 2.4.6)
REFERENCE_S = 1.2e-3
# in-campaign probes run at the first channel draw after this interval
PROBE_INTERVAL_S = 0.05
# probes run just before and just after every campaign
BOUNDARY_PROBES = 5


def reference_kernel() -> float:
    """Seconds taken by a fixed ~1.2 ms mix of the campaigns' kinds of
    work: complex exponentials, FIR filtering, FFTs, gathers and
    interpreted arithmetic."""
    import numpy as np

    start = perf_counter()
    ramp = np.arange(8000)
    signal = np.exp(0.1j * ramp) * np.exp(-0.2j * ramp)
    np.convolve(signal, np.ones(97))
    for _ in range(2):
        np.fft.fft(signal[:4096])
    signal[(ramp * 7919) % 8000] += 1.0
    total = 0
    for k in range(2000):
        total += k * k
    return perf_counter() - start


def calibrate(wall_s: float, probes) -> float:
    return wall_s * REFERENCE_S / statistics.mean(probes)


class SpeedProbe:
    """Samples the reference kernel around and during one campaign.

    Inside the campaign, the probe rides on ``channel.synthesize_channel``
    (called at every location in both modes) and runs at most once per
    PROBE_INTERVAL_S; its own time is taken back out of the campaign's.
    """

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0
        self._last = 0.0
        self._patched = []

    def __enter__(self):
        self.samples += [reference_kernel() for _ in range(BOUNDARY_PROBES)]
        self._patched = tracer.replace_everywhere("channel.synthesize_channel",
                                                  self._wrap)
        self._last = perf_counter()
        return self

    def __exit__(self, *exc):
        tracer.restore(self._patched)
        self._patched = []
        self.samples += [reference_kernel() for _ in range(BOUNDARY_PROBES)]

    def _wrap(self, original):
        def probed(*args, **kwargs):
            if perf_counter() - self._last >= PROBE_INTERVAL_S:
                taken = reference_kernel()
                self.samples.append(taken)
                self.inside_s += taken
                self._last = perf_counter()
            return original(*args, **kwargs)
        return probed

    def calibrated(self, wall_s: float) -> float:
        """The campaign's calibrated seconds, its probes excluded."""
        return calibrate(wall_s - self.inside_s, self.samples)
