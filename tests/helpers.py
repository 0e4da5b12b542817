"""Shared helpers for the module and acceptance test suites."""

import math

import numpy as np

from chansounder import channel as ch
from chansounder import pulse, sliding
from chansounder.pn import circular_correlate


def planted_capture(chips, taps, channel, config, extra_periods=2):
    """Transmit, apply a planted channel, and return the capture."""
    tx = pulse.modulate(chips, config.averaging_periods + extra_periods,
                        taps, config.chip_period)
    return ch.apply_channel(tx, channel)


def measured_correlation_gain(chips, periods, seed, symbol_snr_db=0.0):
    """First-principles processing-gain measurement for one trial.

    Plants a unit tap, removes the known -1/N floor using the true gain
    sum (known by construction), and compares the corrected peak power
    against the empirical off-peak noise power.
    """
    n = chips.period_length
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(10 ** (-symbol_snr_db / 10.0) / 2.0)
    noise = sigma * (rng.normal(size=periods * n)
                     + 1j * rng.normal(size=periods * n))
    symbols = np.tile(chips.chips, periods) + noise
    mean_period = symbols.reshape(periods, n).mean(axis=0)
    raw = circular_correlate(chips, mean_period).values
    true_gain_sum = 1.0  # single planted tap of gain one
    corrected = (raw + true_gain_sum / n) * (n / (n + 1.0))
    peak_power = np.abs(corrected[0]) ** 2
    noise_power = np.mean(np.abs(corrected[1:]) ** 2)
    return 10 * math.log10(peak_power / noise_power) - symbol_snr_db


def random_planted_channel(rng, chip_period, max_taps=8, max_span=50,
                           dynamic_range_db=40.0):
    """Random integer-lag multipath channel within the stated envelope."""
    tap_count = int(rng.integers(2, max_taps + 1))
    extra = rng.choice(np.arange(1, max_span + 1), size=tap_count - 1,
                       replace=False)
    lags = np.concatenate([[0], np.sort(extra)])
    levels_db = rng.uniform(-dynamic_range_db, 0.0, size=tap_count)
    levels_db[rng.integers(tap_count)] = 0.0  # anchor the strongest tap
    amplitudes = 10.0 ** (levels_db / 20.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=tap_count)
    gains = amplitudes * np.exp(1j * phases)
    return ch.MultipathChannel(gains=gains, delays=lags * chip_period), lags


def oracle_measure_sliding(capture, chips, taps, config, settle_periods=1):
    """measure_sliding on one full np.convolve matched filter per segment.

    The pre-decimation receive chain, kept as the reference that the
    decimating filter in pulse must match bit for bit.
    """
    sps, n = taps.samples_per_symbol, chips.period_length
    filtered = np.convolve(capture.samples, taps.coefficients)
    half = (len(taps.coefficients) - 1) / 2
    origin = int(round(-capture.origin_time * capture.sample_rate + half))
    assert origin >= 0
    start = origin + settle_periods * n * sps
    scores = [np.sum(np.abs(circular_correlate(
        chips, filtered[start + phase::sps][:n]).values) ** 2)
        for phase in range(sps)]
    symbols = filtered[origin + int(np.argmax(scores))::sps]
    skip = settle_periods * n
    return sliding.sound(symbols[skip:skip + config.averaging_periods * n],
                         chips, config)
