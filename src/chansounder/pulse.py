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
from numpy.lib.stride_tricks import sliding_window_view

from chansounder import schema
from chansounder.pn import ChipSequence

IQ_FORMAT = "cf32_le"

# The most taps a filter may have. design_rrc's least-squares repair
# builds dense (L, L / 2 + 1) and (lags, L) matrices: at this length the
# fold matrix is 4.2 MB, and the longest design (span 512, 2 samples per
# symbol) took 1.4 s on a 2-CPU Xeon.
MAX_FILTER_TAPS = 2 ** 10 + 1

# Outputs per block of the timing search's polyphase filter bank: each
# product is a (blocks, 16) @ (16, 16) dgemm over a contiguous rail.
BANK_WIDTH = 16
# The most multiply-adds, m * n * k, in one filter-bank product, and
# the most n * k in one of the phase sums' vector-matrix products.
# OpenBLAS runs a product this small on the calling thread, so its
# thread pool stays asleep and takes no CPU from the other campaign
# processes.
MAX_PRODUCT_MACS = 2 ** 18


@dataclass(frozen=True)
class FilterTaps:
    """Symmetric unit-energy FIR taps, as design_rrc makes them."""

    coefficients: np.ndarray
    samples_per_symbol: int

    @cached_property
    def bank(self) -> np.ndarray:
        """The timing search's polyphase filter bank, built at its first
        use: Q = ceil((L + B - 1) / B) blocks of (B, B), B = BANK_WIDTH,
        whose block q holds taps[j + q * B - m] at row m, column j, and
        zero where that index is outside the taps. Output j of a block
        of B outputs is the sum over q of the input block q blocks
        before it times column j of block q."""
        span = len(self.coefficients)
        depth = -(-(span + BANK_WIDTH - 1) // BANK_WIDTH)
        padded = np.zeros((depth + 1) * BANK_WIDTH)
        padded[BANK_WIDTH:BANK_WIDTH + span] = self.coefficients
        m = np.arange(BANK_WIDTH)
        index = (BANK_WIDTH * np.arange(1, depth + 1)[:, None, None]
                 + m - m[:, None])
        return padded[index]


@dataclass(frozen=True)
class BasebandSignal:
    """Uniformly sampled complex baseband samples.

    origin_time is the time of sample 0, letting consumers line up
    waveforms that keep their full convolution tails. The receive chain
    (estimate_timing_phase, recover_symbols) reads a stack instead: a
    signal whose samples are (rows, n), rows of n samples that each
    start at origin_time, such as segment_capture's segments or
    sound-sliding's capture with a new first axis. The samples are not
    checked here: read_iq proves a capture finite, and a composed one is
    finite because every power is in channel.POWER_LIMIT_DB's range.
    """

    samples: np.ndarray
    sample_rate: float
    origin_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))

    def __len__(self) -> int:
        return len(self.samples)


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
    # a rolloff of at least 0.01 keeps pi / (4 * beta) below 79
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

    These are not checked here: SounderConfig checks its narrower ranges
    before any campaign or command designs a filter.
    """
    h = _restore_nyquist_zeros(
        _rrc_closed_form(rolloff, span_symbols, samples_per_symbol),
        samples_per_symbol)
    return FilterTaps(coefficients=h, samples_per_symbol=samples_per_symbol)


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


def burst_period_and_ramp(chips: ChipSequence,
                          taps: FilterTaps) -> tuple[int, int]:
    """The samples per chip period, N * sps, and per ramp, L - 1, of a
    modulate burst: the period its steady state repeats with and the
    length of the ramp at each end."""
    return (chips.period_length * taps.samples_per_symbol,
            len(taps.coefficients) - 1)


@dataclass(frozen=True)
class PeriodForm:
    """A waveform of `length` samples on sample_rate, sample 0 at
    origin_time, in period form: samples holds its first `head`
    samples, which end in one steady-state period of `period` samples,
    and then its tail. In between, that period repeats, whole or in
    part, so the tail starts at sample length - (len(samples) - head).
    With period 0 there is no steady state to repeat, and samples holds
    the whole waveform. len() is the waveform's length.

    modulate's burst is one, with the ramp-in and two periods in its
    head and one period and the ramp-out in its tail, and so is the
    received waveform that channel.apply_channel makes of it.
    """

    samples: np.ndarray
    head: int
    period: int
    length: int
    sample_rate: float
    origin_time: float

    @property
    def tail(self) -> int:
        """Where the tail starts in the waveform."""
        return self.length - (len(self.samples) - self.head)

    def __len__(self) -> int:
        return self.length


def modulate(chips: ChipSequence, repetitions: int, taps: FilterTaps,
             chip_period: float) -> PeriodForm:
    """Shape `repetitions` periods of the chip train into a waveform,
    returned in period form.

    The imaginary part is identically zero: the chip train is a real
    symbol stream driving the in-phase rail only.

    Periodic by construction: with P = N * sps samples per chip period
    and L filter taps, waveform[L - 1:length - (L - 1)] repeats every P
    samples exactly. The form holds the first L - 1 + 2 * P samples and
    the last P + L - 1, so that a channel whose taps are at most P
    samples late reads its whole output's head and tail from it
    (channel.apply_channel). Both are slices of the chip train shaped
    over min(repetitions, 3 + ceil((L - 1) / P)) periods, which holds
    them, and is every period whenever the burst is too short to repeat
    anything between them: such a burst is held whole, with period 0.
    """
    period, ramp = burst_period_and_ramp(chips, taps)
    shaped = min(repetitions, 3 + -(-ramp // period))
    short = shape_symbols(np.tile(chips.chips, shaped), taps, chip_period)
    length = repetitions * period + ramp
    head, tail = ramp + 2 * period, length - period - ramp
    if tail <= head:  # then shaped == repetitions
        head = tail = length
    samples = np.concatenate((short.samples[:head],
                              short.samples[len(short) - (length - tail):]))
    return PeriodForm(samples, head, period if head < tail else 0, length,
                      short.sample_rate, short.origin_time)


def _zero_padded(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[..., lo:hi], with the indices past either end of a row read as
    zero, as np.convolve reads them: a view of x when lo:hi lies inside
    its rows, else a copy. No row reads another row's samples."""
    size = x.shape[-1]
    if 0 <= lo and hi <= size:
        return x[..., lo:hi]
    out = np.zeros(x.shape[:-1] + (hi - lo,), dtype=x.dtype)
    a, b = max(lo, 0), min(hi, size)
    out[..., a - lo:b - lo] = x[..., a:b]
    return out


def recover_symbols(stack: BasebandSignal, chips: ChipSequence,
                    taps: FilterTaps, first, periods: int) -> np.ndarray:
    """Per row of the stack, one chip period of symbols averaged
    coherently over `periods` consecutive periods: a C-contiguous
    (rows, N) array, N = chips.period_length.

    A row's symbols are its full matched-filter output decimated to
    symbol rate from output first[row] on; for a noiseless channel whose
    tap delays are whole symbol periods, at the correct phase they are
    the chip train convolved with the channel's symbol-spaced impulse
    response. Its first periods * N symbols are averaged period by
    period into N outputs.

    Filtering and averaging are both linear, so the capture is folded
    first: the `periods` raw windows of N * sps + L - 1 samples, one
    period (N * sps samples) apart, are averaged. Every row is folded at
    once over a window wide enough for all the rows' first outputs: the
    period slices are added, in order, to zeros and the sum divided by
    `periods`, the bits of numpy's mean over them. Each row is then read
    from its own first output. Samples beyond either end of a row read
    as zero, as in np.convolve. Output k of a row is a (1, L) @ (L, 1)
    matmul of its folded period's window folded[k * sps:k * sps + L]
    against the reversed taps; numpy evaluates it with the same dtype
    dot that np.convolve calls per output, so the N outputs equal
    np.convolve(folded, taps)[L - 1:L - 1 + N * sps:sps] bit for bit.

    One output index per row and periods >= 1, as
    sliding.measure_sliding picks and checks them.
    """
    sps = taps.samples_per_symbol
    x = stack.samples
    span = len(taps.coefficients)
    n = chips.period_length
    period = n * sps
    lo = np.asarray(first) - (span - 1)
    base = int(lo.min())
    width = int(lo.max()) - base + period + span - 1
    x = _zero_padded(x, base, base + (periods - 1) * period + width)
    folded = np.zeros((len(x), width), dtype=np.complex128)
    for start in range(0, periods * period, period):
        folded += x[:, start:start + width]
    folded /= periods
    h_rev = taps.coefficients[::-1].astype(np.complex128)
    out = np.empty((len(x), n), dtype=np.complex128)
    for row, offset, mean in zip(sliding_window_view(folded, span, axis=1),
                                 lo - base, out):
        windows = row[offset:offset + period:sps]
        mean[:] = np.matmul(windows[:, None, :], h_rev[:, None])[:, 0, 0]
    return out


def _bank_rails(x: np.ndarray, taps: FilterTaps, start: int, stop: int):
    """np.convolve(row, taps.coefficients)[start:stop] to rounding for each
    row of the (rows, n) x, one rail at a time: yields the real rail's
    (rows, stop - start) floats, then the imaginary rail's, in one buffer
    that the second overwrites.

    Output o is the sum of row[o - i] * taps[i] over the L taps. The
    rows' samples from start - (Q - 1) * B on, B = BANK_WIDTH, are read
    through _zero_padded, and each rail in turn is copied into one
    contiguous float buffer, read as blocks of B samples. Block b of B
    outputs is then the sum over the Q blocks q of taps.bank of input
    block b - q times bank[q]: Q products, each over one view of every
    row's blocks, added in order. Each product is one dgemm per row of
    at most MAX_PRODUCT_MACS multiply-adds. Requires 0 <= start and
    stop <= n + L - 1.
    """
    depth, width, _ = taps.bank.shape
    blocks = -(-(stop - start) // width)
    lo = start - (depth - 1) * width
    rail = np.empty((len(x), blocks + depth - 1, width))
    window = _zero_padded(x, lo, lo + rail.shape[1] * width).reshape(rail.shape)
    out = np.empty((len(x), blocks, width))
    step = MAX_PRODUCT_MACS // width**2
    product = np.empty((len(x), min(blocks, step), width))
    for values in (window.real, window.imag):
        rail[...] = values
        for first in range(0, blocks, step):
            outs = out[:, first:first + step]
            count = outs.shape[1]
            part = product[:, :count]
            for q, block in enumerate(taps.bank):
                at = first + depth - 1 - q
                np.matmul(rail[:, at:at + count], block, out=part if q else outs)
                if q:
                    outs += part
        yield out.reshape(len(x), -1)[:, :stop - start]


def estimate_timing_phase(stack: BasebandSignal, chips: ChipSequence,
                          taps: FilterTaps, start: int) -> np.ndarray:
    """Per row of the stack, the decimation phase maximizing the
    correlation-profile energy, or -1 for a row with no signal.

    Searches all samples_per_symbol integer phases over one chip period
    of each row's full matched-filter output, outputs start to
    start + N * sps - 1. Total profile energy is strictly largest on the
    symbol grid (off-grid sampling leaks energy out of the Nyquist
    pulse), and unlike the bare peak magnitude it cannot be fooled by
    adjacent taps whose mis-sampled tails add up. Ties break toward the
    smallest phase. Nothing is checked here: sliding.measure_sliding
    picks start and checks that the window lies in the output.

    No correlation is formed. By Parseval, the profile energy of a phase's
    N outputs y is sum_k |C_k|^2 |Y_k|^2 / N^3, with C the chip spectrum
    and Y the spectrum of y. generate_glfsr makes only m-sequences (it
    rejects a polynomial that is not primitive), which are balanced and
    whose periodic autocorrelation is two-valued, so |C_0|^2 = 1 and
    |C_k|^2 = N + 1 for every k != 0, exactly, and the energy is
    ((N + 1) * sum|y|^2 - |sum y|^2) / N^2 for every sequence the
    receiver can be handed.

    The matched-filter outputs of all rows come from the filter-bank
    products of _bank_rails, equal to np.convolve to rounding, one rail
    at a time: each rail is scored before the next is filtered, and the
    real rail's scores are added to the imaginary rail's. Only the
    integer phases leave the search. A row whose scores are all zero
    has no timing phase: its phase is -1. By Cauchy-Schwarz a phase's
    score is at least its sum|y|^2, so that is a row whose matched-filter
    outputs in the search window are all zero, however much power it
    holds elsewhere.
    """
    sps = taps.samples_per_symbol
    n = chips.period_length
    # the sps phases of one chip period are sps * n contiguous outputs;
    # row k of a rail's (n, sps) reshape is symbol k at every phase
    scores = sum(_phase_scores(rail.reshape(-1, n, sps)) for rail in
                 _bank_rails(stack.samples, taps, start, start + sps * n))
    return np.where(scores.any(axis=1), np.argmax(scores, axis=1), -1)


def _phase_scores(rail: np.ndarray) -> np.ndarray:
    """One rail's term of N^2 times the correlation-profile energy of each
    phase p, whose outputs y have real or imaginary part rail[..., :, p]
    in a (..., N, sps) block: (N + 1) * sum y^2 - (sum y)^2. A phase's
    score is its real rail's term plus its imaginary rail's.

    The plain and power sums are ones @ products over the symbols, at
    most MAX_PRODUCT_MACS // sps symbols each, added in order; each part
    is squared in place after its plain sum, so the rail is left
    squared. A block's scores do not depend on the blocks stacked with
    it.
    """
    n, sps = rail.shape[-2:]
    step = MAX_PRODUCT_MACS // sps
    power = total = 0.0
    for first in range(0, n, step):
        part = rail[..., first:first + step, :]
        ones = np.ones(part.shape[-2])
        total = total + ones @ part
        part *= part
        power = power + ones @ part
    return (n + 1) * power - total * total


@dataclass(frozen=True)
class IqSidecar:
    """The JSON sidecar that describes a raw I/Q capture file. Its rate
    is one that a sweep plan or a sliding config can ask for, 1 kHz to
    1 THz, and its origin time is within 1e12 s, which holds the epoch
    timestamps (about 1.7e9 s) that UHD writes; t = 0 then falls on a
    sample index well inside the floats."""

    format: str
    sample_rate_hz: float = schema.within(1e3, 1e12, "Hz")
    origin_time_s: float = schema.within(-1e12, 1e12, "s")
    sample_count: int = schema.within(0, math.inf)

    def __post_init__(self):
        if self.format != IQ_FORMAT:
            raise ValueError(f"format: {self.format!r} is not supported, "
                             f"only {IQ_FORMAT!r}")
        schema.check_ranges(self)


def read_iq(path) -> BasebandSignal:
    """Read a cf32_le capture (interleaved little-endian float32 I, Q)
    checked against its strictly loaded sidecar, the IqSidecar document
    at the capture's path plus ".json". A NaN or infinite part fails
    naming the file and the first sample that holds one."""
    # an empty path stays empty, which schema.load refuses
    sidecar_path = path and f"{Path(path)}.json"
    path = Path(path)
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
    return BasebandSignal(samples, sidecar.sample_rate_hz,
                          sidecar.origin_time_s)
