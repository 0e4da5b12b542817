"""Root-raised-cosine pulse shaping and symbol-rate recovery.

The transmit side shapes the bipolar chip train into a sampled complex
baseband waveform; the receive side matched-filters and decimates back to
symbol rate. Timing recovery is an exhaustive integer-phase search over
the samples-per-symbol grid, which is exact at simulation scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from chansounder import schema
from chansounder.exceptions import CaptureWindowError
from chansounder.pn import ChipSequence

IQ_FORMAT = "cf32_le"

# The most taps a filter may have. design_rrc's least-squares repair
# builds dense (L, L / 2 + 1) and (lags, L) matrices: at this length the
# fold matrix is 4.2 MB, and the longest design (span 512, 2 samples per
# symbol) took 1.4 s on a 2-CPU Xeon.
MAX_FILTER_TAPS = 2 ** 10 + 1

# Outputs per row of the timing search's filter-bank product.
BANK_WIDTH = 16
# The most multiply-adds, m * n * k, in one filter-bank product. OpenBLAS
# runs a dgemm this small on the calling thread, so its thread pool
# stays asleep and takes no CPU from the other campaign processes.
MAX_PRODUCT_MACS = 2 ** 18


@dataclass(frozen=True)
class FilterTaps:
    """Symmetric unit-energy FIR taps with their design parameters."""

    coefficients: np.ndarray
    samples_per_symbol: int
    rolloff: float
    span_symbols: int

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeffs)
        expected = self.span_symbols * self.samples_per_symbol + 1
        if len(coeffs) != expected:
            raise ValueError(f"expected {expected} taps, got {len(coeffs)}")
        if np.max(np.abs(coeffs - coeffs[::-1])) > 1e-12:
            raise ValueError("taps are not symmetric")
        energy = float(np.sum(coeffs**2))
        if abs(energy - 1.0) > 1e-9:
            raise ValueError(f"taps are not unit energy (got {energy!r})")

    @cached_property
    def bank(self) -> np.ndarray:
        """The timing search's filter bank, built at its first use: a
        (B + L - 1, B) matrix, B = BANK_WIDTH, whose column j holds the
        reversed taps from row j on. A window of B + L - 1 samples times
        it gives B consecutive outputs of the full convolution."""
        span = len(self.coefficients)
        bank = np.zeros((BANK_WIDTH + span - 1, BANK_WIDTH))
        for j in range(BANK_WIDTH):
            bank[j:j + span, j] = self.coefficients[::-1]
        return bank


@dataclass(frozen=True)
class BasebandSignal:
    """Uniformly sampled complex baseband samples.

    origin_time is the time of sample 0, letting consumers line up
    waveforms that keep their full convolution tails. The receive chain
    (estimate_timing_phase, recover_symbols) reads a stack instead: a
    signal whose samples are (rows, n), rows of n samples that each
    start at origin_time, as rows() makes them.
    """

    samples: np.ndarray
    sample_rate: float
    origin_time: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        check_finite(samples)

    @classmethod
    def checked(cls, samples: np.ndarray, sample_rate: float,
                origin_time: float = 0.0) -> BasebandSignal:
        """A signal of complex128 samples that the caller has already
        proved finite, as multitx.segment_capture's slot powers and
        read_iq's scan of the raw floats do: the rate is checked, the
        samples are not read again."""
        signal = object.__new__(cls)  # no __init__, so no second check
        for name, value in (("samples", samples), ("sample_rate", sample_rate),
                            ("origin_time", origin_time)):
            object.__setattr__(signal, name, value)
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        return signal

    def __len__(self) -> int:
        return len(self.samples)

    def rows(self, first: int, step: int, count: int,
             length: int) -> BasebandSignal:
        """A stack of count windows of this 1-D signal, row r being
        samples[first + r * step:first + r * step + length], as one
        strided view with this signal's rate and origin_time. The
        windows must lie inside the samples. The samples were checked
        when this signal was built, so they are not checked again."""
        samples = np.ascontiguousarray(self.samples)
        if min(first, step, length) < 0 or count < 1 or \
                first + (count - 1) * step + length > len(samples):
            raise ValueError(f"rows of {length} samples from {first}, {step} "
                             f"apart, do not fit {len(samples)} samples")
        size = samples.itemsize
        return BasebandSignal.checked(
            as_strided(samples[first:], shape=(count, length),
                       strides=(step * size, size), writeable=False),
            self.sample_rate, self.origin_time)


def check_finite(samples: np.ndarray) -> None:
    """Raise ValueError("samples must be finite") unless every real and
    imaginary part of the contiguous complex128 samples is finite."""
    if not np.isfinite(samples.view(np.float64)).all():
        raise ValueError("samples must be finite")


def _rrc_closed_form(rolloff: float, span_symbols: int,
                     samples_per_symbol: int) -> np.ndarray:
    """Sampled closed-form root-raised-cosine impulse response, unit energy.

    The two removable singularities (t = 0 and |t| = 1/(4*rolloff) symbol
    periods) are evaluated by their limits.
    """
    ntaps = span_symbols * samples_per_symbol + 1
    t = (np.arange(ntaps) - (ntaps - 1) / 2) / samples_per_symbol
    beta = rolloff
    h = np.empty(ntaps, dtype=np.float64)

    at_zero = t == 0.0
    at_edge = np.abs(np.abs(4.0 * beta * t) - 1.0) < 1e-9
    regular = ~(at_zero | at_edge)

    h[at_zero] = 1.0 + beta * (4.0 / math.pi - 1.0)
    if at_edge.any():  # else pi / (4 * beta) may overflow for a tiny beta
        h[at_edge] = (beta / math.sqrt(2.0)) * (
            (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * beta))
            + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * beta))
        )
    tr = t[regular]
    h[regular] = (
        np.sin(math.pi * tr * (1.0 - beta))
        + 4.0 * beta * tr * np.cos(math.pi * tr * (1.0 + beta))
    ) / (math.pi * tr * (1.0 - (4.0 * beta * tr) ** 2))

    return h / math.sqrt(float(np.sum(h**2)))


def _restore_nyquist_zeros(h: np.ndarray, sps: int) -> np.ndarray:
    """Least-squares correction making h (x) h Nyquist again.

    Truncating the root-raised-cosine leaves its self-convolution a few
    times 1e-3 away from zero at nonzero symbol multiples, which caps the
    recoverable tap dynamic range near 45 dB. A Gauss-Newton projection
    onto the set of symmetric unit-energy taps whose symbol-spaced
    autocorrelation is exactly delta removes that floor while moving the
    taps by at most a few percent.
    """
    n = len(h)
    half = n // 2
    # fold matrix: full taps from the symmetric half
    fold = np.zeros((n, half + 1))
    for i in range(half + 1):
        fold[i, i] = 1.0
        if n - 1 - i != i:
            fold[n - 1 - i, i] = 1.0
    lags = np.arange(0, n, sps)
    target = (lags == 0).astype(np.float64)
    h = h.copy()
    for _ in range(20):
        autocorr = np.correlate(h, h, "full")
        residual = autocorr[n - 1 + lags] - target
        if np.max(np.abs(residual)) < 1e-13:
            break
        jac = np.zeros((len(lags), n))
        for row, lag in enumerate(lags):
            if lag == 0:
                jac[row] = 2.0 * h
            else:
                jac[row, lag:] += h[: n - lag]
                jac[row, : n - lag] += h[lag:]
        delta, *_ = np.linalg.lstsq(jac @ fold, -residual, rcond=None)
        h = h + fold @ delta
    return h / math.sqrt(float(np.sum(h**2)))


def design_rrc(rolloff: float, span_symbols: int,
               samples_per_symbol: int) -> FilterTaps:
    """Design unit-energy root-raised-cosine taps: the closed form,
    repaired for truncation by _restore_nyquist_zeros.

    Args:
        rolloff: excess bandwidth in (0, 1].
        span_symbols: filter length in symbols; even, at least 4.
        samples_per_symbol: oversampling factor, at least 2.
    """
    if not 0.0 < rolloff <= 1.0:
        raise ValueError("rolloff: must be in (0, 1]")
    if span_symbols < 4 or span_symbols % 2 != 0:
        raise ValueError("span_symbols: must be an even integer >= 4")
    if samples_per_symbol < 2:
        raise ValueError("samples_per_symbol: must be >= 2")

    h = _restore_nyquist_zeros(
        _rrc_closed_form(rolloff, span_symbols, samples_per_symbol),
        samples_per_symbol)
    return FilterTaps(coefficients=h, samples_per_symbol=samples_per_symbol,
                      rolloff=rolloff, span_symbols=span_symbols)


def shape_symbols(symbols, taps: FilterTaps,
                  chip_period: float) -> BasebandSignal:
    """Pulse-shape a symbol stream into a sampled waveform.

    Output keeps the full convolution length; origin_time is set so that
    the shaped peak of symbol k sits at t = k * chip_period.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    sps = taps.samples_per_symbol
    sample_rate = sps / chip_period
    upsampled = np.zeros(len(symbols) * sps, dtype=np.complex128)
    upsampled[::sps] = symbols
    samples = np.convolve(upsampled, taps.coefficients)
    delay = (len(taps.coefficients) - 1) // 2
    return BasebandSignal(samples=samples, sample_rate=sample_rate,
                          origin_time=-delay / sample_rate)


def tile_period(samples: np.ndarray, start: int, stop: int,
                period: int) -> None:
    """Fill samples[start + period:stop] in place with copies of
    samples[start:start + period], for stop - start >= period: one
    broadcast copy of the whole periods and one slice copy of the part
    period left over."""
    whole = (stop - start) // period
    end = start + whole * period
    samples[start + period:end].reshape(whole - 1, period)[:] = \
        samples[start:start + period]
    samples[end:stop] = samples[start:start + stop - end]


def burst_period_and_ramp(chips: ChipSequence,
                          taps: FilterTaps) -> tuple[int, int]:
    """The samples per chip period, N * sps, and per ramp, L - 1, of a
    modulate burst: the period its steady state repeats with and the
    length of the ramp at each end."""
    return (chips.period_length * taps.samples_per_symbol,
            len(taps.coefficients) - 1)


def modulate(chips: ChipSequence, repetitions: int, taps: FilterTaps,
             chip_period: float) -> BasebandSignal:
    """Shape `repetitions` periods of the chip train into a waveform.

    The imaginary part is identically zero: the chip train is a real
    symbol stream driving the in-phase rail only.

    Periodic by construction: with P = N * sps samples per chip period
    and L filter taps, samples[L - 1:len - (L - 1)] repeat every P
    samples exactly. Only the ramp-in, one steady-state period and the
    ramp-out are shaped, from the fewest periods that hold them, and the
    period is tiled in between.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    period, ramp = burst_period_and_ramp(chips, taps)
    shaped = min(repetitions, 1 + -(-ramp // period))
    short = shape_symbols(np.tile(chips.chips, shaped), taps, chip_period)
    if shaped == repetitions:
        return short
    samples = np.empty(repetitions * period + ramp, dtype=np.complex128)
    samples[:ramp + period] = short.samples[:ramp + period]
    tile_period(samples, ramp, len(samples) - ramp, period)
    samples[len(samples) - ramp:] = short.samples[len(short) - ramp:]
    return BasebandSignal(samples=samples, sample_rate=short.sample_rate,
                          origin_time=short.origin_time)


def _origin_index(signal: BasebandSignal, taps: FilterTaps) -> int:
    """Index of t = 0 on the symbol grid of the full matched-filter output
    of each row of a stack."""
    if signal.samples.ndim != 2:
        raise ValueError(f"expected a (rows, n) stack of captures, got "
                         f"samples of shape {signal.samples.shape}")
    if signal.samples.shape[-1] < len(taps.coefficients):
        raise CaptureWindowError(
            f"signal of {signal.samples.shape[-1]} samples is shorter than "
            f"the {len(taps.coefficients)}-tap filter span"
        )
    half = (len(taps.coefficients) - 1) / 2
    origin = -signal.origin_time * signal.sample_rate + half
    if not math.isfinite(origin):
        raise CaptureWindowError(
            f"origin_time {signal.origin_time!r} s puts t = 0 beyond any "
            f"sample index at {signal.sample_rate!r} Hz")
    return int(round(origin))


def _zero_padded(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[..., lo:hi], each row contiguous, with the indices past either
    end of a row read as zero, as np.convolve reads them: a view of x
    when lo:hi lies inside its rows, else a copy. No row reads another
    row's samples."""
    size = x.shape[-1]
    if 0 <= lo and hi <= size:
        window = x[..., lo:hi]
        contiguous = window.strides[-1] == window.itemsize
        return window if contiguous else window.copy()
    out = np.zeros(x.shape[:-1] + (hi - lo,), dtype=x.dtype)
    a, b = max(lo, 0), min(hi, size)
    out[..., a - lo:b - lo] = x[..., a:b]
    return out


def recover_symbols(stack: BasebandSignal, chips: ChipSequence,
                    taps: FilterTaps, phases, periods: int,
                    skip_symbols: int = 0) -> np.ndarray:
    """Per row of the stack, one chip period of symbols at that row's
    sample phase, averaged coherently over `periods` consecutive
    periods: a C-contiguous (rows, N) array, N = chips.period_length.

    The symbol stream at a phase is the matched-filter output decimated
    to symbol rate. It starts at the first symbol at or after t = 0 and
    runs to the end of the filter tail; for a noiseless channel whose tap
    delays are whole symbol periods, at the correct phase it is the chip
    train convolved with the channel's symbol-spaced impulse response.
    Its symbols from skip_symbols on are averaged period by period into
    N outputs.

    Filtering and averaging are both linear, so the capture is folded
    first: the `periods` raw windows of N * sps + L - 1 samples, one
    period (N * sps samples) apart, are averaged. One strided mean folds
    every row over a window wide enough for all the rows' phases, and
    each row is then read at its own phase. Samples beyond either end
    of a row read as zero, as in np.convolve. Output k of a row is a
    (1, L) @ (L, 1) matmul of its folded period's strided window
    folded[k * sps:k * sps + L] against the reversed taps; numpy
    evaluates it with the same dtype dot that np.convolve calls per
    output, so the N outputs equal
    np.convolve(folded, taps)[L - 1:L - 1 + N * sps:sps] bit for bit.
    Raises ValueError when a row's stream ends before `periods` periods.
    """
    sps = taps.samples_per_symbol
    origin = _origin_index(stack, taps)
    x = stack.samples
    phases = np.asarray(phases)
    if phases.shape != x.shape[:1] or np.any((phases < 0) | (phases >= sps)):
        raise ValueError(f"phase must be in [0, {sps}), one per row")
    if periods < 1 or skip_symbols < 0:
        raise ValueError("periods must be >= 1 and skip_symbols nonnegative")
    first = origin + phases
    first = np.where(first < 0, first % sps, first)
    span = len(taps.coefficients)
    n = chips.period_length
    # the stream's symbols from skip_symbols on: outputs first + k * sps
    # below len(row) + L - 1, the length of the full convolution
    last = int(first.max())
    available = max(0, -(-(x.shape[1] + span - 1 - last) // sps) - skip_symbols)
    if available < periods * n:
        raise CaptureWindowError(
            f"capture of {available} symbols is shorter than "
            f"{periods} periods ({periods * n} symbols)"
        )
    period = n * sps
    lo = first + skip_symbols * sps - (span - 1)
    base = int(lo.min())
    width = int(lo.max()) - base + period + span - 1
    x = _zero_padded(x, base, base + (periods - 1) * period + width)
    stride = x.strides[1]
    folded = as_strided(x, shape=(len(x), periods, width),
                        strides=(x.strides[0], period * stride, stride)
                        ).mean(axis=1)
    step = folded.strides[1]
    h_rev = taps.coefficients[::-1].astype(np.complex128)
    out = np.empty((len(x), n), dtype=np.complex128)
    for row, offset, mean in zip(folded, lo - base, out):
        windows = as_strided(row[offset:], shape=(n, span),
                             strides=(sps * step, step))
        mean[:] = np.matmul(windows[:, None, :], h_rev[:, None])[:, 0, 0]
    return out


def _bank_rails(x: np.ndarray, taps: FilterTaps, start: int,
                stop: int) -> np.ndarray:
    """np.convolve(row, taps.coefficients)[start:stop] to rounding for each
    row of the (rows, n) x, as a (rows, 2, stop - start) float array: the
    real rail, then the imaginary.

    Output o is the dot of row[o - (L - 1):o + 1] with the reversed taps,
    so B = BANK_WIDTH consecutive outputs are one window of B + L - 1
    samples times taps.bank. The windows of both rails of every row, B
    samples apart, are one strided view of the rows' interleaved parts,
    zero-padded where they run past either end of a row; each product, a
    row's rail times the bank, has at most MAX_PRODUCT_MACS
    multiply-adds. Requires 0 <= start and stop <= n + L - 1.
    """
    bank = taps.bank
    rows, width = bank.shape
    blocks = -(-(stop - start) // width)
    lo = start - (rows - width)
    x = _zero_padded(x, lo, lo + (blocks - 1) * width + rows)
    parts = x.view(np.float64)
    item = parts.itemsize
    windows = as_strided(parts, shape=(len(x), 2, blocks, rows),
                         strides=(parts.strides[0], item, 2 * width * item,
                                  2 * item))
    out = np.empty((len(x), 2, blocks, width))
    chunk = max(1, MAX_PRODUCT_MACS // (rows * width))
    for first in range(0, blocks, chunk):
        np.matmul(windows[:, :, first:first + chunk], bank,
                  out=out[:, :, first:first + chunk])
    return out.reshape(len(x), 2, blocks * width)[..., :stop - start]


def estimate_timing_phase(stack: BasebandSignal, chips: ChipSequence,
                          taps: FilterTaps,
                          skip_symbols: int = 0) -> np.ndarray:
    """Per row of the stack, the decimation phase maximizing the
    correlation-profile energy, or -1 for a row with no signal.

    Searches all samples_per_symbol integer phases over one chip period
    starting at skip_symbols. Total profile energy is strictly largest on
    the symbol grid (off-grid sampling leaks energy out of the Nyquist
    pulse), and unlike the bare peak magnitude it cannot be fooled by
    adjacent taps whose mis-sampled tails add up. Ties break toward the
    smallest phase.

    No correlation is formed. By Parseval, the profile energy of a phase's
    N outputs y is sum_k |C_k|^2 |Y_k|^2 / N^3, with C the chip spectrum
    and Y the spectrum of y. ChipSequence accepts only balanced sequences
    whose periodic autocorrelation is two-valued, so |C_0|^2 = 1 and
    |C_k|^2 = N + 1 for every k != 0, exactly, and the energy is
    ((N + 1) * sum|y|^2 - |sum y|^2) / N^2 for every sequence the
    receiver can be handed.

    The matched-filter outputs of all rows come from the filter-bank
    products of _bank_rails, equal to np.convolve to rounding; only the
    integer phases leave the search. A row whose matched-filter outputs
    in the search window are all zero, however much power it holds
    elsewhere, has no timing phase: its phase is -1.
    """
    sps = taps.samples_per_symbol
    n = chips.period_length
    # the sps phases of one chip period are sps * n contiguous outputs;
    # row k of each rail's (n, sps) reshape is symbol k at every phase
    start = _origin_index(stack, taps) + skip_symbols * sps
    stop = start + sps * n
    if start < 0 or stop > stack.samples.shape[1] + len(taps.coefficients) - 1:
        raise CaptureWindowError(
            "signal does not contain a full chip period at every phase"
        )
    rails = _bank_rails(stack.samples, taps, start, stop)
    peaks = np.maximum(rails.max(axis=(1, 2)), -rails.min(axis=(1, 2)))
    # scaled by the power of two that brings each row's largest part into
    # [0.5, 1), the scores cannot overflow at any finite capture; the
    # scaling is exact, so no argmax changes
    _, exponents = np.frexp(peaks)
    rails = np.ldexp(rails, -exponents[:, None, None]).reshape(-1, 2, n, sps)
    return np.where(peaks > 0.0, np.argmax(_phase_scores(rails), axis=1), -1)


def _phase_scores(rails: np.ndarray) -> np.ndarray:
    """N^2 times the correlation-profile energy of each phase p, whose
    outputs y have real part rails[..., 0, :, p] and imaginary part
    rails[..., 1, :, p] in a (..., 2, N, sps) block:
    (N + 1) * sum|y|^2 - |sum y|^2.

    The score splits into one term per rail. The power sums are sums of
    products, as in multitx._mean_power; not np.vdot, which wakes the
    BLAS thread pool. A block's scores do not depend on the blocks
    stacked with it.
    """
    n = rails.shape[-2]
    power = np.einsum("...rkp,...rkp->...rp", rails, rails)
    total = np.einsum("...rkp->...rp", rails)
    scores = (n + 1) * power - total * total
    return scores[..., 0, :] + scores[..., 1, :]


@dataclass(frozen=True)
class IqSidecar:
    """The JSON sidecar that describes a raw I/Q capture file."""

    format: str
    sample_rate_hz: float
    origin_time_s: float
    sample_count: int

    def __post_init__(self):
        if self.format != IQ_FORMAT:
            raise ValueError(f"format: {self.format!r} is not supported, "
                             f"only {IQ_FORMAT!r}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz: must be positive")


def read_iq(path) -> BasebandSignal:
    """Read a cf32_le capture (interleaved little-endian float32 I, Q)
    checked against its strictly loaded sidecar, the IqSidecar document
    at the capture's path plus ".json". A NaN or infinite part fails
    naming the file and the first sample that holds one."""
    path = Path(path)
    sidecar_path = str(path) + ".json"
    try:
        sidecar = schema.load(IqSidecar, sidecar_path)
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from None
    raw = np.fromfile(path, dtype="<f4")
    if len(raw) % 2:
        raise ValueError(f"{path}: odd float count {len(raw)}, "
                         f"not whole cf32_le I/Q pairs")
    if sidecar.sample_count != len(raw) // 2:
        raise ValueError(f"{sidecar_path}: sample_count: "
                         f"{sidecar.sample_count} does not match the "
                         f"{len(raw) // 2} samples in {path}")
    bad = np.flatnonzero(~np.isfinite(raw))
    if len(bad):
        raise ValueError(f"{path}: sample {bad[0] // 2} is not finite")
    samples = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    return BasebandSignal.checked(samples, sidecar.sample_rate_hz,
                                  sidecar.origin_time_s)
