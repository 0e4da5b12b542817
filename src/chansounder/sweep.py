"""Stepped-frequency sounding: tones, FFT-bin powers, narrowband losses.

A transmitter steps through a carrier list emitting a baseband tone at
its assigned offset; the receiver takes a length-L FFT and reads the
tone's power from its bin. Tones are required to sit exactly on the FFT
bin grid so rectangular windowing keeps simultaneous transmitters
orthogonal; off-grid offsets are rejected outright.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from chansounder.channel import MultipathChannel
from chansounder.pulse import BasebandSignal

@dataclass(frozen=True)
class FrequencySetup:
    """Stepped-frequency settings: a scenario's frequency block, and on its
    own the sweep plan file that sound-freq reads.

    tone_offsets_hz names one tone per transmitter; left None, the tones
    are packed automatically (multitx.build_frequency_plan).
    """

    carriers_hz: tuple[float, ...] = tuple(700e6 + 2e6 * k for k in range(10))
    sample_rate_hz: float = 1e6
    fft_length: int = 4096
    guard_band_hz: float = 25e3
    step_duration_s: float = 5e-3
    tone_offsets_hz: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SweepPlan:
    """Carrier list plus tone assignment for one synchronized sweep frame,
    derived from a FrequencySetup."""

    carrier_list: np.ndarray
    tone_offsets: np.ndarray
    step_duration: float
    sample_rate: float
    fft_length: int
    guard_band: float

    def __post_init__(self):
        carriers = np.asarray(self.carrier_list, dtype=np.float64)
        tones = np.asarray(self.tone_offsets, dtype=np.float64)
        object.__setattr__(self, "carrier_list", carriers)
        object.__setattr__(self, "tone_offsets", tones)
        if self.sample_rate <= 0 or self.fft_length < 2:
            raise ValueError("sample_rate and fft_length must be positive")
        if self.guard_band < 0:
            raise ValueError("guard_band must be nonnegative")
        if len(carriers) < 1 or len(tones) < 1:
            raise ValueError("need at least one carrier and one tone")
        if round(self.step_duration * self.sample_rate) < self.fft_length:
            raise ValueError("step_duration too short for one FFT window")
        spacing = np.diff(carriers)
        if len(spacing) and (np.any(spacing <= 0)
                             or np.max(np.abs(spacing - spacing[0])) > 1e-6 * abs(spacing[0])):
            raise ValueError("carriers must be strictly increasing with uniform spacing")
        nyquist = self.sample_rate / 2.0
        bin_width = self.sample_rate / self.fft_length
        for k, f in enumerate(tones):
            if abs(f) >= nyquist:
                raise ValueError(f"tone {k} at {f} Hz violates Nyquist band (+-{nyquist} Hz)")
            if abs(f / bin_width - round(f / bin_width)) > 1e-6:
                raise ValueError(
                    f"tone {k} at {f} Hz is not a multiple of the bin width "
                    f"{bin_width} Hz"
                )
        for j in range(len(tones)):
            for k in range(j + 1, len(tones)):
                if abs(tones[j] - tones[k]) < self.guard_band:
                    raise ValueError(
                        f"tones {j} and {k} are separated by "
                        f"{abs(tones[j] - tones[k])} Hz < guard band {self.guard_band} Hz"
                    )

    @property
    def step_count(self) -> int:
        return len(self.carrier_list)

    @property
    def carrier_spacing(self) -> float:
        if len(self.carrier_list) < 2:
            raise ValueError("need at least two carriers for a spacing")
        return float(self.carrier_list[1] - self.carrier_list[0])

    def bin_index(self, tone_offset: float) -> int:
        return int(round(self.fft_length * tone_offset / self.sample_rate)) % self.fft_length


@dataclass(frozen=True)
class NarrowbandLossSet:
    """Per-carrier narrowband path losses for one transmitter."""

    per_carrier_loss_db: np.ndarray
    transmitter_id: str
    tone_offset: float

    def __post_init__(self):
        losses = np.asarray(self.per_carrier_loss_db, dtype=np.float64)
        object.__setattr__(self, "per_carrier_loss_db", losses)
        if len(losses) < 1:
            raise ValueError("need at least one loss entry")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")


def generate_tone(offset: float, duration: float, sample_rate: float,
                  amplitude: float = 1.0) -> BasebandSignal:
    """Complex exponential amplitude * exp(j*2*pi*offset*t)."""
    if abs(offset) >= sample_rate / 2.0:
        raise ValueError(
            f"tone at {offset} Hz aliases at sample rate {sample_rate} Hz"
        )
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    return BasebandSignal(samples=amplitude * np.exp(2j * np.pi * offset * t),
                          sample_rate=sample_rate)


def bin_power(capture: BasebandSignal, plan: SweepPlan, tone_offset: float) -> float:
    """Received power of one tone, read from its FFT bin.

    Takes a length-L DFT over the first L samples (an integer number of
    tone periods for bin-centered tones) and returns |X[bin]|^2 / L^2.
    Negative offsets wrap to the upper bins.
    """
    return bin_powers(capture, plan, [tone_offset])[0]


def bin_powers(capture: BasebandSignal, plan: SweepPlan, tone_offsets) -> list:
    """bin_power for several tones of one capture from a single FFT."""
    for tone_offset in tone_offsets:
        if not np.any(np.abs(plan.tone_offsets - tone_offset) < 1e-9):
            raise ValueError(f"tone offset {tone_offset} Hz is not part of the plan")
    length = plan.fft_length
    if len(capture) < length:
        raise ValueError(
            f"capture of {len(capture)} samples is shorter than the "
            f"FFT length {length}"
        )
    spectrum = np.fft.fft(capture.samples[:length])
    return [(abs(spectrum[plan.bin_index(tone_offset)]) / length) ** 2
            for tone_offset in tone_offsets]


@functools.lru_cache(maxsize=16, typed=True)
def _unit_tone(tone_offset: float, n: int, sample_rate: float) -> np.ndarray:
    """Read-only exp(j*2*pi*tone_offset*t) over n samples, computed once."""
    t = np.arange(n) / sample_rate
    tone = np.exp(2j * np.pi * tone_offset * t)
    tone.flags.writeable = False
    return tone


def received_tone(channel: MultipathChannel, carrier: float, tone_offset: float,
                  plan: SweepPlan, amplitude: float) -> np.ndarray:
    """Steady-state received tone samples through a multipath channel.

    Each tap contributes a copy of the tone scaled by its gain and
    rotated by the carrier-plus-offset phase its delay accumulates; the
    per-tap sum is the time-domain equivalent of multiplying by the
    channel transfer value at carrier + offset. The unit tone itself is
    computed once per (offset, length, rate) and shared, read-only, by
    every tap, step and location; the taps are still summed one by one
    in the same order, so the samples are bit-identical to evaluating
    the tone inside the loop.
    """
    n = int(round(plan.step_duration * plan.sample_rate))
    tone = _unit_tone(tone_offset, n, plan.sample_rate)
    acc = np.zeros(n, dtype=np.complex128)
    for gain, delay in zip(channel.gains, channel.delays):
        acc += gain * np.exp(-2j * np.pi * (carrier + tone_offset) * delay) * tone
    return amplitude * acc


def compose_sweep_capture(entries, plan: SweepPlan, step: int,
                          noise_power_dbfs: float | None = None,
                          seed: int = 0) -> BasebandSignal:
    """Superpose the received tones of several transmitters for one step.

    entries: list of (tone_offset, channel) pairs, one per simultaneous
    transmitter. Tones are transmitted at unit amplitude; any level
    difference between transmitters lives in the channel gains. Noise,
    when asked for, is drawn from a generator seeded with seed.
    """
    n = int(round(plan.step_duration * plan.sample_rate))
    acc = np.zeros(n, dtype=np.complex128)
    carrier = float(plan.carrier_list[step])
    for tone_offset, chan in entries:
        acc += received_tone(chan, carrier, tone_offset, plan, 1.0)
    if noise_power_dbfs is not None and noise_power_dbfs != -math.inf:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
        acc += rng.normal(scale=sigma, size=n) + 1j * rng.normal(scale=sigma, size=n)
    return BasebandSignal(samples=acc, sample_rate=plan.sample_rate)


def sweep_sound(channels, plan: SweepPlan, tx_power_db: float,
                transmitter_id: str, tone_offset: float | None = None,
                noise_power_dbfs: float | None = None,
                seed: int = 0) -> NarrowbandLossSet:
    """Sweep one transmitter across all carrier steps.

    channels holds one MultipathChannel per carrier step (a static
    environment may repeat the same one). Each step simulates a unit
    tone through the channel, captures, and converts the bin power to a
    narrowband path loss of tx_power_db - 10*log10(bin power).
    """
    if len(channels) != plan.step_count:
        raise ValueError(
            f"need one channel per carrier step ({plan.step_count}), "
            f"got {len(channels)}"
        )
    if tone_offset is None:
        tone_offset = float(plan.tone_offsets[0])
    losses = np.empty(plan.step_count)
    for i, chan in enumerate(channels):
        capture = compose_sweep_capture(
            [(tone_offset, chan)], plan, i,
            noise_power_dbfs=noise_power_dbfs, seed=seed + i)
        power = bin_power(capture, plan, tone_offset)
        if power <= 0.0:
            raise ValueError(f"no received power at step {i}")
        losses[i] = tx_power_db - 10.0 * math.log10(power)
    return NarrowbandLossSet(per_carrier_loss_db=losses,
                             transmitter_id=transmitter_id,
                             tone_offset=tone_offset)


def mean_wideband_path_loss(losses: NarrowbandLossSet) -> float:
    """Average the narrowband losses, in dB, into one wideband figure."""
    return float(np.mean(losses.per_carrier_loss_db))


def temporal_resolution(plan: SweepPlan) -> float:
    """Delay resolution of the swept band: 1 / (2 * (N - 1) * spacing)."""
    n = plan.step_count
    if n < 2:
        raise ValueError("need at least two carrier steps")
    return 1.0 / (2.0 * (n - 1) * plan.carrier_spacing)


def losses_to_json(losses: NarrowbandLossSet) -> dict:
    return {
        "transmitter_id": losses.transmitter_id,
        "tone_offset_hz": losses.tone_offset,
        "per_carrier_loss_db": [float(v) for v in losses.per_carrier_loss_db],
        "mean_path_loss_db": mean_wideband_path_loss(losses),
    }


def losses_from_json(doc: dict) -> NarrowbandLossSet:
    return NarrowbandLossSet(
        per_carrier_loss_db=np.asarray(doc["per_carrier_loss_db"],
                                       dtype=np.float64),
        transmitter_id=doc["transmitter_id"],
        tone_offset=float(doc["tone_offset_hz"]),
    )
