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
    """Stepped-frequency settings: a scenario's frequency block, the sweep
    plan file that sound-freq reads, and one sweep frame.

    tone_offsets_hz names one tone per transmitter; left None, the tones
    are packed automatically (multitx.build_frequency_plan, which returns
    one copy per time frame with that frame's tones filled in). Every
    check names its field.
    """

    carriers_hz: tuple[float, ...] = tuple(700e6 + 2e6 * k for k in range(10))
    sample_rate_hz: float = 1e6
    fft_length: int = 4096
    guard_band_hz: float = 25e3
    step_duration_s: float = 5e-3
    tone_offsets_hz: tuple[float, ...] | None = None

    def __post_init__(self):
        rate, length = self.sample_rate_hz, self.fft_length
        if not rate > 0:
            raise ValueError(f"sample_rate_hz: must be positive, got {rate}")
        if length < 2:
            raise ValueError(f"fft_length: must be >= 2, got {length}")
        carriers = self.carriers_hz
        if len(carriers) < 1:
            raise ValueError("carriers_hz: need at least one carrier")
        spacing = np.diff(carriers)
        if len(spacing) and (np.any(spacing <= 0)
                             or np.max(np.abs(spacing - spacing[0])) > 1e-6 * abs(spacing[0])):
            raise ValueError("carriers_hz: must be strictly increasing with "
                             "uniform spacing")
        if round(self.step_duration_s * rate) < length:
            raise ValueError(
                f"step_duration_s: {self.step_duration_s} s is too short for "
                f"one FFT window of {length} samples")
        if not self.guard_band_hz >= 0:
            raise ValueError("guard_band_hz: must be nonnegative")
        tones = self.tone_offsets_hz
        if tones is None:
            return
        if len(tones) < 1:
            raise ValueError("tone_offsets_hz: need at least one tone, or null "
                             "to pack them")
        nyquist = rate / 2.0
        bin_width = rate / length
        for k, f in enumerate(tones):
            if abs(f) >= nyquist:
                raise ValueError(f"tone_offsets_hz[{k}]: {f} Hz violates the "
                                 f"Nyquist band (+-{nyquist} Hz)")
            if abs(f / bin_width - round(f / bin_width)) > 1e-6:
                raise ValueError(f"tone_offsets_hz[{k}]: {f} Hz is not a "
                                 f"multiple of the bin width {bin_width} Hz")
        for j in range(len(tones)):
            for k in range(j + 1, len(tones)):
                if abs(tones[j] - tones[k]) < self.guard_band_hz:
                    raise ValueError(
                        f"tone_offsets_hz: tones {j} and {k} are separated by "
                        f"{abs(tones[j] - tones[k])} Hz < guard band "
                        f"{self.guard_band_hz} Hz")

    def has_tone(self, tone_offset: float) -> bool:
        return any(abs(f - tone_offset) < 1e-9 for f in self.tone_offsets_hz)

    def bin_index(self, tone_offset: float) -> int:
        length = self.fft_length
        return int(round(length * tone_offset / self.sample_rate_hz)) % length


def bin_power(capture: BasebandSignal, frame: FrequencySetup, tones) -> list:
    """Received power of each tone of one capture, read from its FFT bin.

    Takes one length-L DFT over the first L samples (an integer number of
    tone periods for bin-centered tones) and returns |X[bin]|^2 / L^2 per
    tone. Negative offsets wrap to the upper bins.
    """
    for tone_offset in tones:
        if not frame.has_tone(tone_offset):
            raise ValueError(f"tone offset {tone_offset} Hz is not part of the plan")
    length = frame.fft_length
    if len(capture) < length:
        raise ValueError(
            f"capture of {len(capture)} samples is shorter than the "
            f"FFT length {length}"
        )
    spectrum = np.fft.fft(capture.samples[:length])
    return [(abs(spectrum[frame.bin_index(tone_offset)]) / length) ** 2
            for tone_offset in tones]


def narrowband_losses(captures, frame: FrequencySetup, tones,
                      tx_powers_db) -> list:
    """Per tone, its narrowband path loss at every carrier step.

    captures yields one capture per carrier step, in carrier order. Tone
    k is sent at unit amplitude by a transmitter of tx_powers_db[k], so
    its loss at a step is tx_powers_db[k] - 10*log10(bin power), or None
    where its bin holds no power.
    """
    losses = [[] for _ in tones]
    for capture in captures:
        for row, tx_power_db, power in zip(losses, tx_powers_db,
                                           bin_power(capture, frame, tones)):
            row.append(tx_power_db - 10.0 * math.log10(power)
                       if power > 0.0 else None)
    return losses


@functools.lru_cache(maxsize=16, typed=True)
def _unit_tone(tone_offset: float, n: int, sample_rate: float) -> np.ndarray:
    """Read-only exp(j*2*pi*tone_offset*t) over n samples, computed once."""
    t = np.arange(n) / sample_rate
    tone = np.exp(2j * np.pi * tone_offset * t)
    tone.flags.writeable = False
    return tone


def received_tone(channel: MultipathChannel, carrier: float, tone_offset: float,
                  frame: FrequencySetup) -> np.ndarray:
    """Steady-state received samples of a unit-amplitude tone through a
    multipath channel.

    Each tap contributes a copy of the tone scaled by its gain and
    rotated by the carrier-plus-offset phase its delay accumulates; the
    per-tap sum is the time-domain equivalent of multiplying by the
    channel transfer value at carrier + offset. The unit tone itself is
    computed once per (offset, length, rate) and shared, read-only, by
    every tap, step and location; the taps are still summed one by one
    in the same order, so the samples are bit-identical to evaluating
    the tone inside the loop.
    """
    n = int(round(frame.step_duration_s * frame.sample_rate_hz))
    tone = _unit_tone(tone_offset, n, frame.sample_rate_hz)
    acc = np.zeros(n, dtype=np.complex128)
    for gain, delay in zip(channel.gains, channel.delays):
        acc += gain * np.exp(-2j * np.pi * (carrier + tone_offset) * delay) * tone
    return acc


def compose_sweep_capture(entries, frame: FrequencySetup, step: int,
                          noise_power_dbfs: float | None = None,
                          seed: int = 0) -> BasebandSignal:
    """Superpose the received tones of several transmitters for one step.

    entries: list of (tone_offset, channel) pairs, one per simultaneous
    transmitter. Tones are transmitted at unit amplitude; any level
    difference between transmitters lives in the channel gains. Noise,
    when asked for, is drawn from a generator seeded with seed.
    """
    n = int(round(frame.step_duration_s * frame.sample_rate_hz))
    acc = np.zeros(n, dtype=np.complex128)
    carrier = float(frame.carriers_hz[step])
    for tone_offset, chan in entries:
        acc += received_tone(chan, carrier, tone_offset, frame)
    if noise_power_dbfs is not None and noise_power_dbfs != -math.inf:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
        acc += rng.normal(scale=sigma, size=n) + 1j * rng.normal(scale=sigma, size=n)
    return BasebandSignal(samples=acc, sample_rate=frame.sample_rate_hz)
