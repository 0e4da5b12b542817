"""Sliding-correlator receiver: correlation profiles to delay profiles.

The capture is averaged coherently over M chip periods, correlated
against the reference sequence, bias-corrected for the deterministic
-1/N sidelobe floor of maximal-length sequences, and thresholded into a
set of taps. Wideband path loss and RMS delay spread derive from the
surviving taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chansounder.channel import MAX_SLOT_SAMPLES
from chansounder.exceptions import NoSignalError
from chansounder.pn import MAX_DEGREE, ChipSequence, circular_correlate, generate_glfsr
from chansounder.pulse import (
    MAX_FILTER_TAPS,
    BasebandSignal,
    FilterTaps,
    design_rrc,
    estimate_timing_phase,
    recover_symbols,
)
from chansounder.schema import check_ranges, within

DETECTION_SIGMA_FACTOR = 5.0
# the chip periods at the head of a capture that the receiver reads past
# before its timing search and its averaged periods, so that the
# filters' ramp-in stays out of them
SETTLE_PERIODS = 1


@dataclass(frozen=True)
class SounderConfig:
    """Sliding-correlator settings, shared by transmitter and receiver:
    the scenario file's sliding block, field for field.

    The PN chips and the RRC taps follow from the config through
    reference(), which also checks the polynomial. The filter length,
    span_symbols * samples_per_symbol + 1 taps, and the span's parity,
    which design_rrc takes unchecked, are checked here, before design_rrc
    allocates its O(L^2) matrices. A chip period of 1 ns to 1 ms, a chip
    rate of 1 GHz to 1 kHz, spans every bandwidth that a receiver tuned
    from 1 MHz to 6 GHz sounds, and keeps the PN period and the sample
    rate well inside the floats.
    """

    chip_period_s: float = within(1e-9, 1e-3, "s", default=60e-9)
    pn_degree: int = within(2, MAX_DEGREE, default=10)
    polynomial: int | None = None
    # more periods than a slot's samples never fit one
    averaging_periods: int = within(1, MAX_SLOT_SAMPLES, default=10)
    detection_threshold_db: float = within(1.0, 200.0, "dB", default=30.0)
    rolloff: float = within(0.01, 1.0, default=0.35)
    span_symbols: int = within(4, MAX_FILTER_TAPS // 2, default=12)
    samples_per_symbol: int = within(2, MAX_FILTER_TAPS // 4, default=4)

    def __post_init__(self):
        check_ranges(self)
        taps = self.span_symbols * self.samples_per_symbol + 1
        if taps > MAX_FILTER_TAPS:
            # every samples_per_symbol fits at the shortest span, 4 symbols
            raise ValueError(
                f"span_symbols: a filter of span_symbols * samples_per_symbol "
                f"+ 1 = {taps} taps is above the {MAX_FILTER_TAPS}-tap limit")
        if self.span_symbols % 2:
            raise ValueError(f"span_symbols: {self.span_symbols} is not even")


def reference(config: SounderConfig) -> tuple[ChipSequence, FilterTaps]:
    """The PN chip sequence and the RRC taps that config names.

    The config has checked the degree and design_rrc's arguments, so a
    ValueError is generate_glfsr's, naming the polynomial.
    """
    return (generate_glfsr(config.pn_degree, config.polynomial),
            design_rrc(config.rolloff, config.span_symbols,
                       config.samples_per_symbol))


def rms_delay_spread(lags, gains, chip_period: float) -> float:
    """Square root of the power-weighted second central moment of delay
    of one or more taps."""
    lags = np.asarray(lags, dtype=np.float64)
    powers = np.abs(np.asarray(gains, dtype=np.complex128)) ** 2
    # the spread is translation invariant; shifting to the first tap keeps
    # the single-tap case exactly zero
    delays = (lags - lags[0]) * chip_period
    total = powers.sum()
    mean = float((powers * delays).sum() / total)
    second = float((powers * delays ** 2).sum() / total)
    return math.sqrt(max(second - mean ** 2, 0.0))


def _std(values: np.ndarray) -> float:
    """values.std() of a nonempty float array, bit for bit, by the steps
    of numpy's own _var without its wrappers: the mean, the deviations
    squared in place, their mean, its square root."""
    count = len(values)
    deviations = values - values.sum() / count
    deviations *= deviations
    return math.sqrt(deviations.sum() / count)


def _threshold(corrected: np.ndarray, config: SounderConfig):
    magnitudes = np.abs(corrected)
    peak = float(magnitudes.max())
    if peak == 0.0:
        raise NoSignalError("correlation profile is identically zero")
    relative_floor = peak * 10.0 ** (-config.detection_threshold_db / 20.0)
    off_peak = magnitudes[magnitudes < relative_floor]
    noise_floor = DETECTION_SIGMA_FACTOR * _std(off_peak) if len(off_peak) else 0.0
    threshold = max(relative_floor, noise_floor)
    detected = (magnitudes >= threshold).nonzero()[0]
    if len(detected) == 0:
        raise NoSignalError(
            "no correlation lag stands clear of the detection floor"
        )
    if len(detected) > len(corrected) // 2:
        raise NoSignalError(
            f"detection_threshold_db: a floor {config.detection_threshold_db:.6g}"
            f" dB below the peak lets {len(detected)} of {len(corrected)} "
            f"correlation lags clear it, more than half"
        )
    return detected


def _detect_taps(profile: np.ndarray, config: SounderConfig):
    """Threshold one period's correlation profile into tap lags.

    For an m-sequence, every tap contributes exactly -gain/N to all other
    lags. A first pass estimates the total gain from the lag-wise profile
    sum (exact in the noiseless case); a refinement pass re-estimates it
    from the detected taps only, which keeps the off-peak noise floor at
    the correlator's own level instead of folding the whole profile's
    noise back in.
    """
    n = len(profile)
    gain_sum = profile.sum()  # equals (sum of tap gains) / N + noise
    detected = None
    for _ in range(2):
        corrected = profile + gain_sum
        corrected *= n / (n + 1.0)
        detected = _threshold(corrected, config)
        gain_sum = corrected[detected].sum() / n
    return detected, corrected


def _first_arrival(lags: np.ndarray, period: int) -> int:
    """Pick the first-arrival lag on the circle of correlation lags.

    Delay profiles are relative (first path at lag 0), so a capture that
    starts mid-sequence only rotates the lag set. The first arrival is
    the lag following the largest circular gap (the first such gap).
    """
    lags = lags.tolist()
    gaps = [b - a for a, b in zip(lags, lags[1:] + [lags[0] + period])]
    return lags[(gaps.index(max(gaps)) + 1) % len(lags)]


def sound(mean_periods, chips: ChipSequence, config: SounderConfig,
          tx_powers_db) -> list:
    """Estimate a delay profile from each row of a (rows, N) stack of
    coherently averaged chip periods of symbols (recover_symbols'
    output); tx_powers_db gives the power in dB of each row's
    transmitter.

    All rows are correlated at once, in one multi-row FFT. Each row then
    has the exactly computable -1/N sidelobe bias removed and keeps
    every lag whose magnitude clears both the relative detection
    threshold and five empirical off-peak standard deviations. Lags are
    reported relative to the first arrival. The wideband path loss is
    the row's transmitter power minus its total tap power.

    Returns one entry per row: its delay-profile document, the
    delay_profile of records.jsonl (chip_period_s; taps, each a lag with
    its gain_re and gain_im; path_loss_db; rms_delay_spread_s), or,
    where no lag rises above the detection floor, the NoSignalError that
    says so.
    """
    means = np.asarray(mean_periods, dtype=np.complex128)
    results = []
    for mean_period, profile, tx_power_db in zip(
            means, circular_correlate(chips, means), tx_powers_db, strict=True):
        try:
            results.append(_sound_row(mean_period, profile, chips, config,
                                      float(tx_power_db)))
        except NoSignalError as exc:
            # kept without its traceback, whose frames would hold the
            # caller's capture until the cycle collector ran
            results.append(exc.with_traceback(None))
    return results


def _sound_row(mean_period, profile, chips: ChipSequence,
               config: SounderConfig, tx_power_db: float) -> dict:
    """One row of sound(), from its averaged period and that period's
    correlation profile. Raises NoSignalError."""
    n = chips.period_length
    detected, corrected = _detect_taps(profile, config)

    # Re-running detection on the period vector rolled to put the first
    # arrival at lag 0 makes the result bit-identical for captures that
    # start anywhere inside the periodic steady state.
    first = _first_arrival(detected, n)
    if first:
        detected, corrected = _detect_taps(
            circular_correlate(chips, np.roll(mean_period, -first)), config)
        first = _first_arrival(detected, n)
    lags = detected  # nonzero() returns them sorted
    if first:
        relative = (detected - first) % n
        order = relative.argsort()
        lags = relative[order]
        detected = detected[order]
    gains = corrected[detected]
    total = float((np.abs(gains) ** 2).sum())
    return {
        "chip_period_s": config.chip_period_s,
        "taps": [{"lag": lag, "gain_re": gain.real, "gain_im": gain.imag}
                 for lag, gain in zip(lags.tolist(), gains.tolist())],
        "path_loss_db": tx_power_db - 10.0 * math.log10(total),
        "rms_delay_spread_s": rms_delay_spread(lags, gains,
                                               config.chip_period_s),
    }


def measure_sliding(stack: BasebandSignal, chips: ChipSequence,
                    taps: FilterTaps, config: SounderConfig, tx_powers_db) -> list:
    """Full receive chain over a stack of captures, one row per
    transmitter (multitx.segment_capture's segments, or one capture as a
    one-row stack): timing phase search, then symbol recovery averaged
    over the chip periods, then sound() with each row's transmitter
    power from tx_powers_db (dB).

    This function alone decides which samples the receiver reads. A
    row's symbols at a phase start at its first symbol at or after t = 0
    in its full matched-filter output or, where t = 0 falls before the
    row, at its first output on the phase's grid. The timing search
    reads the chip period SETTLE_PERIODS periods after t = 0, and the
    averaged periods start SETTLE_PERIODS periods into each row's
    symbols at its phase, so the settle keeps filter ramp-in out of
    both.

    Raises a ValueError when a row is shorter than the filter span, or
    its output does not hold the search period or the averaged periods.
    Its message starts with the field to blame: sample_count when a row
    holds fewer than SETTLE_PERIODS + averaging_periods chip periods of
    samples, which miss the periods wherever they sit, else
    origin_time_s. Returns one entry per row: its delay-profile
    document, as sound() gives it, or a NoSignalError where the row has
    no timing phase or no tap.
    """
    n, sps = chips.period_length, taps.samples_per_symbol
    span, size = len(taps.coefficients), stack.samples.shape[1]
    periods = config.averaging_periods
    outputs = size + span - 1  # of each row's full matched-filter output
    settle = SETTLE_PERIODS * n * sps
    # t = 0 on the symbol grid of each row's full matched-filter output
    origin = round(-stack.origin_time * stack.sample_rate + (span - 1) / 2)
    field = ("sample_count" if size < (SETTLE_PERIODS + periods) * n * sps
             else "origin_time_s")
    if size < span:
        raise ValueError(f"{field}: signal of {size} samples is shorter than "
                         f"the {span}-tap filter span")
    if not 0 <= origin + settle <= outputs - n * sps:
        raise ValueError(f"{field}: signal does not contain a full chip "
                         f"period at every phase")
    phases = estimate_timing_phase(stack, chips, taps, origin + settle)
    first = origin + np.maximum(phases, 0)
    first = np.where(first < 0, first % sps, first) + settle
    available = max(0, -(-(outputs - int(first.max())) // sps))
    if available < periods * n:
        raise ValueError(f"{field}: capture of {available} symbols is shorter "
                         f"than {periods} periods ({periods * n} symbols)")
    means = recover_symbols(stack, chips, taps, first, periods)
    profiles = sound(means, chips, config, tx_powers_db)
    return [profile if phase >= 0 else NoSignalError(
                "capture is silent in the timing search window; no timing "
                "phase exists")
            for phase, profile in zip(phases, profiles)]
