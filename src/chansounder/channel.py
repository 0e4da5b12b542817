"""Tapped-delay-line multipath channels and synthetic environments.

Channels are static per measurement: a list of complex gains at
nonnegative delays, applied to baseband signals as scaled, shifted
copies. synthesize_channel draws every delay on the delay grid it is
given, and a campaign passes the chip period, so a sliding channel's
delays are whole samples. The closed-form transfer function doubles as
the test oracle for the frequency-domain sounder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chansounder.pulse import PeriodForm
from chansounder.schema import check_ranges, within

# The range of every power in dB: transmit powers, path losses and the
# noise. Received amplitudes then stay within 1e+-100, so no sum of
# squares over any capture, correlation or score leaves the normal floats.
POWER_LIMIT_DB = 1000.0

# The longest TDMA slot or sweep carrier step, in samples: 64 MiB of
# complex128, about 77 times the 54616-sample slot of the criterion-9
# campaign.
MAX_SLOT_SAMPLES = 2 ** 22

# The most taps a drawn channel may have: each one is a pass over the
# burst, or over every sweep step, at every location. It is four times
# the 1023 lags that the default PN period resolves.
MAX_TAPS = 2 ** 12


@dataclass(frozen=True)
class MultipathChannel:
    """Complex tap gains at strictly increasing delays, first delay zero,
    as synthesize_channel draws them."""

    gains: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gains",
                           np.asarray(self.gains, dtype=np.complex128))
        object.__setattr__(self, "delays",
                           np.asarray(self.delays, dtype=np.float64))

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.gains) ** 2))


@dataclass(frozen=True)
class EnvironmentModel:
    """Log-distance environment used to synthesize campaign channels.
    Every coefficient's range holds its term of the path loss, and one
    wall's loss, within +-POWER_LIMIT_DB; a spread is 0 (one tap) or at
    least 1 ps, so no drawn delay over it leaves the floats."""

    reference_loss_db: float = within(-POWER_LIMIT_DB, POWER_LIMIT_DB, "dB")
    path_loss_exponent: float = within(0.0, 10.0)
    reference_distance_m: float = within(1e-3, 1e4, "m", default=1.0)
    delay_spread_scale_s: float = within(1e-12, 1.0, "s", default=0.0,
                                         also=0.0)
    tap_count_range: tuple[int, int] = within(1, MAX_TAPS, default=(1, 1))
    wall_loss_db: float = within(0.0, POWER_LIMIT_DB, "dB", default=0.0)
    wall_grid_spacing_m: float | None = within(1e-3, 1e7, "m", default=None)

    def __post_init__(self):
        check_ranges(self)
        lo, hi = self.tap_count_range
        if lo > hi:
            raise ValueError(f"tap_count_range: {lo} is above {hi}")


def apply_channel(signal: PeriodForm, channel: MultipathChannel) -> PeriodForm:
    """Superpose scaled, delayed copies of the signal: the received
    waveform, which has the signal's rate and origin_time, in period
    form.

    Each tap delay is rounded to whole samples, which a delay drawn on
    the chip grid already is; the output is extended by the largest
    delay so no energy is dropped.

    A periodic signal (period P > 0) must be in modulate's form: its
    steady state runs from two periods before its head ends to one
    period into its tail. The output then repeats in the same way from
    the largest delay on, and its form holds the ramp-in plus one period
    and the tail; the steady state in between is not formed. Each tap
    adds its scaled copy of the signal's samples to the output's head
    and to its tail as two direct slices, which the signal's head and
    tail hold for any delay of at most P samples. A campaign's taps are
    all earlier than one PN period, P samples: campaign._run_block
    rejects a later one before any composition. Each sample of the waveform is
    then the same additions in the same order, so the same bits, as
    summing every sample. With period 0 the sum covers every sample.
    """
    shifts = [int(round(delay * signal.sample_rate))
              for delay in channel.delays]
    n = len(signal)
    length = n + shifts[-1]
    period = signal.period
    if period:
        # out[head - period:tail] repeats every period
        head = signal.head - period + shifts[-1]
        tail = signal.tail + period
    else:
        head = tail = length
    # a waveform index k >= signal.tail is samples[k - skip]
    skip = signal.tail - signal.head
    out = np.zeros(head + length - tail, dtype=np.complex128)
    for gain, shift in zip(channel.gains, shifts):
        stop = min(shift + n, head)
        out[shift:stop] += gain * signal.samples[:stop - shift]
        start = max(shift, tail)
        if start < shift + n:
            out[start - tail + head:shift + n - tail + head] += \
                gain * signal.samples[start - shift - skip:]
    return PeriodForm(out, head, period, length, signal.sample_rate,
                      signal.origin_time)


# The most float64 values add_noise draws at once: its one buffer is
# 128 KiB whatever the capture's length.
NOISE_CHUNK = 2 ** 14


def add_noise(samples: np.ndarray, noise_power_dbfs: float | None,
              seed: int | None, length: int | None = None) -> None:
    """Add complex white Gaussian noise of noise_power_dbfs (dB relative
    to unit power) to samples in place. It is drawn from a generator
    seeded with seed: the whole in-phase rail, then the whole quadrature
    rail, each of length values (the samples' own length by default, at
    least it otherwise), of which the first len(samples) are added. Each
    rail is filled at most NOISE_CHUNK values at a time into one reused
    buffer that is scaled and added in place. Consecutive fills draw the
    same values as one fill of the rail's length, so the chunking moves
    no bits. None adds nothing and reads no seed."""
    if noise_power_dbfs is None:
        return
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
    buffer = np.empty(min(len(samples), NOISE_CHUNK))
    drawn = len(samples) if length is None else length
    for part in (samples.real, samples.imag):
        for start in range(0, drawn, len(buffer)):
            rail = buffer[:drawn - start]
            rng.standard_normal(out=rail)
            piece = part[start:start + len(rail)]
            rail = rail[:len(piece)]
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


def wall_term_db(env: EnvironmentModel, tx_position, rx_position) -> float:
    """The loss of the walls between two positions, in dB: wall_loss_db
    per grid line crossed on the x and y axes."""
    if env.wall_grid_spacing_m is None or env.wall_loss_db == 0.0:
        return 0.0
    g = env.wall_grid_spacing_m
    return env.wall_loss_db * sum(
        abs(math.floor(rx_position[axis] / g)
            - math.floor(tx_position[axis] / g)) for axis in (0, 1))


def path_loss_db(env: EnvironmentModel, tx_position, rx_position) -> float:
    """Log-distance path loss plus wall losses between two positions, in
    dB. Raises ValueError where the positions coincide."""
    tx = np.asarray(tx_position, dtype=np.float64)
    rx = np.asarray(rx_position, dtype=np.float64)
    distance = float(np.linalg.norm(rx - tx))
    if distance == 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return (env.reference_loss_db
            + 10.0 * env.path_loss_exponent
            * math.log10(distance / env.reference_distance_m)
            + wall_term_db(env, tx_position, rx_position))


def synthesize_channel(env: EnvironmentModel, tx_position, rx_position,
                       seed: int, *, delay_grid_s: float):
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
