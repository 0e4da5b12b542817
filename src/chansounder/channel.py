"""Tapped-delay-line multipath channels and synthetic environments.

Channels are static per measurement: a list of complex gains at
nonnegative delays, applied to baseband signals as scaled, shifted
copies. Delays must land on the signal's sample grid; fractional delays
are rejected rather than silently rounded so estimator error stays
attributable. The closed-form transfer function doubles as the test
oracle for the frequency-domain sounder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chansounder.pulse import BasebandSignal


@dataclass(frozen=True)
class MultipathChannel:
    """Complex tap gains at strictly increasing delays, first delay zero."""

    gains: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.complex128)
        delays = np.asarray(self.delays, dtype=np.float64)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delays", delays)
        if len(gains) < 1 or len(gains) != len(delays):
            raise ValueError("need matching, nonempty gain and delay lists")
        if delays[0] != 0.0:
            raise ValueError("first tap delay must be 0 (delays are relative)")
        # a NaN compares false, and only the last delay can be inf
        if not ((delays[1:] > delays[:-1]).all() and delays[-1] < math.inf):
            raise ValueError("delays must be finite and strictly increasing")
        if not np.isfinite(gains.view(np.float64)).all():
            raise ValueError("gains must be finite")
        if not (gains != 0).any():
            raise ValueError("at least one gain must be nonzero")

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.gains) ** 2))


@dataclass(frozen=True)
class EnvironmentModel:
    """Log-distance environment used to synthesize campaign channels."""

    reference_loss_db: float
    path_loss_exponent: float
    reference_distance_m: float = 1.0
    delay_spread_scale_s: float = 0.0
    tap_count_range: tuple[int, int] = (1, 1)
    wall_loss_db: float = 0.0
    wall_grid_spacing_m: float | None = None

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent: must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference_distance_m: must be positive")
        if self.delay_spread_scale_s < 0:
            raise ValueError("delay_spread_scale_s: must be nonnegative")
        lo, hi = self.tap_count_range
        if not (1 <= lo <= hi):
            raise ValueError(f"tap_count_range: bad range {self.tap_count_range}")
        if self.wall_loss_db < 0:
            raise ValueError("wall_loss_db: must be nonnegative")
        if self.wall_grid_spacing_m is not None and self.wall_grid_spacing_m <= 0:
            raise ValueError("wall_grid_spacing_m: must be positive")


@dataclass(frozen=True)
class ChannelOutput:
    """A received waveform of `length` samples in period form: samples
    holds its first `head` samples, which end in one steady-state period
    of `period` samples, and then its tail. In between, that period
    repeats, whole or in part, so the tail starts at sample
    length - (len(samples) - head). With period 0 there is no steady
    state to repeat, and samples holds the whole waveform."""

    samples: np.ndarray
    head: int
    period: int
    length: int

    @property
    def tail(self) -> int:
        """Where the tail starts in the waveform."""
        return self.length - (len(self.samples) - self.head)


def apply_channel(signal: BasebandSignal, channel: MultipathChannel,
                  period: int | None = None, ramp: int = 0) -> ChannelOutput:
    """Superpose scaled, delayed copies of the signal: the received
    waveform, which has the signal's rate and origin_time, in period
    form.

    Every tap delay must be an integer number of samples; the output is
    extended by the largest delay so no energy is dropped. The samples
    are not checked for finiteness here: the BasebandSignal that holds
    them checks them once (compose_received's, for the whole capture).

    A signal whose samples[ramp:len - ramp] repeat every `period`
    samples, as pulse.modulate's do with ramp = L - 1, gives an output
    that repeats in the same way from the largest delay on. The per-tap
    sum is then formed only over the ramp-in plus one period and over
    the tail; the steady state in between is not formed, as it repeats
    that period. Each sample of the waveform is then the same additions
    in the same order, so the same bits, as summing every sample.
    Without a period, or when the steady state holds no more than one
    period, the sum covers every sample.
    """
    shifts = []
    for i, delay in enumerate(channel.delays):
        exact = delay * signal.sample_rate
        shift = int(round(exact))
        if abs(exact - shift) > 1e-6:
            raise ValueError(
                f"tap {i}: delay {delay!r} s is not an integer number of "
                f"samples at {signal.sample_rate!r} Hz"
            )
        shifts.append(shift)
    n = len(signal)
    length = n + shifts[-1]
    # out[steady:tail] repeats every period; only out[steady:head] is formed
    steady = ramp + shifts[-1]
    tail = n - ramp
    if period is None or tail - steady <= period:
        head = tail = length
    else:
        head = steady + period
    out = np.zeros(head + length - tail, dtype=np.complex128)
    for gain, shift in zip(channel.gains, shifts):
        stop = min(shift + n, head)
        out[shift:stop] += gain * signal.samples[:stop - shift]
        start = max(shift, tail)
        if start < shift + n:
            out[start - tail + head:shift + n - tail + head] += \
                gain * signal.samples[start - shift:]
    return ChannelOutput(out, head, period if head < tail else 0, length)


# The most float64 values add_noise draws at once: its one buffer is
# 128 KiB whatever the capture's length.
NOISE_CHUNK = 2 ** 14


def add_noise(samples: np.ndarray, noise_power_dbfs: float | None,
              seed: int | None) -> None:
    """Add complex white Gaussian noise of noise_power_dbfs (dB relative
    to unit power) to samples in place. It is drawn from a generator
    seeded with seed: the whole in-phase rail, then the whole quadrature
    rail, each filled NOISE_CHUNK values at a time into one reused
    buffer that is scaled and added in place. Consecutive fills draw the
    same values as one fill of the rail's length, so the chunking moves
    no bits. None or -inf adds nothing and reads no seed."""
    if noise_power_dbfs is None or noise_power_dbfs == -math.inf:
        return
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
    buffer = np.empty(min(len(samples), NOISE_CHUNK))
    for part in (samples.real, samples.imag):
        for start in range(0, len(part), NOISE_CHUNK):
            piece = part[start:start + NOISE_CHUNK]
            rail = buffer[:len(piece)]
            rng.standard_normal(out=rail)
            rail *= sigma
            piece += rail


def frequency_response(channel: MultipathChannel, frequency):
    """Exact transfer value H(f) = sum_l gain_l * exp(-j*2*pi*f*delay_l)."""
    f = np.asarray(frequency, dtype=np.float64)
    phases = np.exp(-2j * np.pi * np.outer(f, channel.delays))
    response = np.sum(channel.gains * phases, axis=-1)
    if np.isscalar(frequency) or f.ndim == 0:
        return complex(response.reshape(-1)[0])
    return response


def _wall_crossings(env: EnvironmentModel, tx_position, rx_position) -> int:
    if env.wall_grid_spacing_m is None or env.wall_loss_db == 0.0:
        return 0
    g = env.wall_grid_spacing_m
    crossings = 0
    for axis in (0, 1):
        crossings += abs(math.floor(rx_position[axis] / g)
                         - math.floor(tx_position[axis] / g))
    return crossings


def path_loss_db(env: EnvironmentModel, tx_position, rx_position) -> float:
    """Log-distance path loss plus wall losses between two positions, in dB.

    May raise OverflowError for positions so far apart that their wall
    crossings do not fit a float.
    """
    tx = np.asarray(tx_position, dtype=np.float64)
    rx = np.asarray(rx_position, dtype=np.float64)
    # the norm's dot overflows to inf for coordinates beyond about 1e154;
    # the campaign's path-loss check rejects that distance by field
    with np.errstate(over="ignore"):
        distance = float(np.linalg.norm(rx - tx))
    if distance == 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return (env.reference_loss_db
            + 10.0 * env.path_loss_exponent
            * math.log10(distance / env.reference_distance_m)
            + env.wall_loss_db * _wall_crossings(env, tx_position, rx_position))


def synthesize_channel(env: EnvironmentModel, tx_position, rx_position,
                       seed: int, delay_grid_s: float = 60e-9):
    """Draw a multipath channel for a transmitter/receiver pair.

    Tap delays start at zero with exponential inter-arrivals snapped to
    the simulation delay grid; tap powers decay exponentially and are
    normalized so the total power matches path_loss_db. Returns
    (channel, true_path_loss_db).
    """
    loss_db = path_loss_db(env, tx_position, rx_position)

    rng = np.random.default_rng(seed)
    lo, hi = env.tap_count_range
    tap_count = int(rng.integers(lo, hi + 1))
    if env.delay_spread_scale_s == 0.0:
        tap_count = 1

    # the running sum of the inter-arrivals, one float at a time, adds
    # as np.cumsum does
    delays = [0.0]
    if tap_count > 1:
        arrival = 0.0
        grid_steps = 0
        for gap in rng.exponential(env.delay_spread_scale_s,
                                   tap_count - 1).tolist():
            arrival += gap
            grid_steps = max(int(round(arrival / delay_grid_s)),
                             grid_steps + 1)
            delays.append(grid_steps * delay_grid_s)
    delays = np.array(delays)

    if env.delay_spread_scale_s > 0.0:
        powers = np.exp(-delays / env.delay_spread_scale_s)
    else:
        powers = np.ones(tap_count)
    powers *= 10.0 ** (-loss_db / 10.0) / powers.sum()
    phases = rng.uniform(0.0, 2.0 * np.pi, tap_count)
    gains = np.sqrt(powers) * np.exp(1j * phases)
    return MultipathChannel(gains=gains, delays=delays), loss_db
