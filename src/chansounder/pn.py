"""Maximal-length PN chip sequences and circular correlation.

A Galois LFSR with a primitive feedback polynomial produces an m-sequence
whose periodic autocorrelation is two-valued: 1 at zero lag and -1/N at
every other lag. That property is what turns a correlator output into a
multipath delay profile, so generation rejects any polynomial that does
not achieve the full period.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Primitive feedback polynomials (bit i = coefficient of x^i). The degree-10
# default is x^10 + x^3 + 1; any primitive polynomial gives the same
# autocorrelation, fixing one keeps generated files stable.
DEFAULT_POLYNOMIALS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}

MAX_DEGREE = 24  # exhaustive period verification beyond this gets expensive


@dataclass(frozen=True)
class ChipSequence:
    """One period of a bipolar maximal-length chip sequence, as
    generate_glfsr makes it: balanced, with a two-valued periodic
    autocorrelation (N at lag 0, -1 elsewhere)."""

    chips: np.ndarray
    period_length: int

    @cached_property
    def conj_spectrum(self) -> np.ndarray:
        """conj(fft(chips)), the correlator's reference side, computed once."""
        spectrum = np.conj(np.fft.fft(self.chips))
        spectrum.flags.writeable = False
        return spectrum


def generate_glfsr(degree: int = 10, polynomial: int | None = None,
                   seed_state: int = 1) -> ChipSequence:
    """Generate one full period of a maximal-length sequence.

    The register steps in Galois form; the output bit is mapped 1 -> -1,
    0 -> +1. Raises ValueError if the polynomial is not primitive (the
    state does not take exactly 2^degree - 1 steps to return to the
    seed). The degree lies in [2, MAX_DEGREE], as SounderConfig.pn_degree
    checks first, and the seed state in [1, 2**degree), as gen-pn
    --seed-state checks first; a campaign and sound-sliding seed the
    register with 1.
    """
    if polynomial is None:
        try:
            polynomial = DEFAULT_POLYNOMIALS[degree]
        except KeyError:
            raise ValueError(
                f"no default polynomial for degree {degree}; pass one explicitly"
            ) from None
    if polynomial >> degree != 1:
        raise ValueError(
            f"polynomial 0x{polynomial:x} does not have degree {degree}"
        )
    if polynomial & 1 != 1:
        raise ValueError("feedback polynomial must have a nonzero constant term")

    n = (1 << degree) - 1
    # Folding the x^degree..x^1 terms down one bit gives the state mask for
    # the right-shift Galois update.
    mask = polynomial >> 1
    bits = np.empty(n, dtype=np.uint8)
    state = seed_state
    period = 0
    for i in range(n):
        out = state & 1
        bits[i] = out
        state >>= 1
        if out:
            state ^= mask
        if period == 0 and state == seed_state:
            period = i + 1
    if period != n:
        raise ValueError(
            f"polynomial 0x{polynomial:x} is not primitive: register period "
            f"{period or '>' + str(n)} != {n}"
        )
    chips = 1.0 - 2.0 * bits.astype(np.float64)
    return ChipSequence(chips=chips, period_length=n)


def circular_correlate(reference: ChipSequence, observed) -> np.ndarray:
    """Normalized circular correlation of a chip sequence against N samples,
    or against each row of a (rows, N) stack.

    Returns c with c[n] = (1/N) * sum_m reference[m] * observed[(m + n) mod N],
    so an observation that is the reference delayed by d chips peaks at lag d.
    Computed via FFT against the reference's cached spectrum, one
    multi-row FFT for a stack. The observations are made C-contiguous
    first, so each row is transformed as the 1-D FFT of that row alone
    would be, bit for bit.
    """
    n = reference.period_length
    observed = np.ascontiguousarray(observed, dtype=np.complex128)
    spectrum = reference.conj_spectrum * np.fft.fft(observed)
    return np.fft.ifft(spectrum) / n


def save_chips(sequence: ChipSequence, path) -> None:
    """Write one +1/-1 integer per line."""
    lines = "\n".join(str(int(c)) for c in sequence.chips)
    Path(path).write_text(lines + "\n")
