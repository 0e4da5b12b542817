"""Stepped-frequency sounding: tones, FFT-bin powers, narrowband losses.

A transmitter steps through a carrier list emitting a baseband tone at
its assigned offset; the receiver takes a length-L FFT and reads the
tone's power from its bin. Tones are required to sit exactly on the FFT
bin grid so rectangular windowing keeps simultaneous transmitters
orthogonal; off-grid offsets are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chansounder.channel import MAX_SLOT_SAMPLES, MultipathChannel, add_noise
from chansounder.schema import check_ranges, within


@dataclass(frozen=True)
class FrequencySetup:
    """Stepped-frequency settings: a scenario's frequency block, the sweep
    plan file that sound-freq reads, and one sweep frame.

    tone_offsets_hz names one tone per transmitter; left None, the tones
    are packed automatically (multitx.build_frequency_plan, which returns
    one copy per time frame with that frame's tones filled in). Every
    check names its field. The carriers lie in the paper's 1 MHz to
    6 GHz band, the rates are USRP-class, 1 kHz to 1 GHz, and a carrier
    step of 1 us to 10 s holds at most 1e10 samples.
    """

    carriers_hz: tuple[float, ...] = within(
        1e6, 6e9, "Hz", default=tuple(700e6 + 2e6 * k for k in range(10)))
    sample_rate_hz: float = within(1e3, 1e9, "Hz", default=1e6)
    fft_length: int = within(2, MAX_SLOT_SAMPLES, default=4096)
    guard_band_hz: float = within(0.0, 1e9, "Hz", default=25e3)
    step_duration_s: float = within(1e-6, 10.0, "s", default=5e-3)
    tone_offsets_hz: tuple[float, ...] | None = within(-5e8, 5e8, "Hz",
                                                       default=None)

    def __post_init__(self):
        check_ranges(self)
        rate, length = self.sample_rate_hz, self.fft_length
        carriers = self.carriers_hz
        if len(carriers) < 1:
            raise ValueError("carriers_hz: need at least one carrier")
        spacing = np.diff(carriers)
        if len(spacing) and (np.any(spacing <= 0)
                             or np.max(np.abs(spacing - spacing[0])) > 1e-6 * abs(spacing[0])):
            raise ValueError("carriers_hz: must be strictly increasing with "
                             "uniform spacing")
        if self.step_samples < length:
            raise ValueError(
                f"step_duration_s: {self.step_duration_s} s is too short for "
                f"one FFT window of {length} samples")
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
                if self.bin_index(tones[j]) == self.bin_index(tones[k]):
                    raise ValueError(
                        f"tone_offsets_hz: tones {j} and {k} share FFT bin "
                        f"{self.bin_index(tones[j])}")

    @property
    def step_samples(self) -> int:
        """The samples of one carrier step."""
        return int(round(self.step_duration_s * self.sample_rate_hz))

    def has_tone(self, tone_offset: float) -> bool:
        return any(abs(f - tone_offset) < 1e-9 for f in self.tone_offsets_hz)

    def bin_index(self, tone_offset: float) -> int:
        length = self.fft_length
        return int(round(length * tone_offset / self.sample_rate_hz)) % length


def bin_power(rows: np.ndarray, frame: FrequencySetup, tones) -> list:
    """Received power of each tone in each row of rows, one capture per
    carrier step, read from its FFT bin: one list per row.

    Takes one length-L DFT per row over its first L samples (an integer
    number of tone periods for bin-centered tones), all rows in one
    multi-row FFT, and returns |X[bin]|^2 / L^2 per tone. Negative
    offsets wrap to the upper bins. Each tone is one of the frame's: a
    campaign reads the frame's own, and sound-freq checks --tone-offset.
    Each row holds at least L samples: a campaign's carrier step holds
    one FFT window (FrequencySetup), and sound-freq stacks exactly L.

    The FFT is taken in place, so no second frame is held: the first L
    samples of each row of rows, a complex128 array, are overwritten by
    their spectrum, with the same bits as an out-of-place FFT. Both
    callers read each frame once: a campaign's next frame overwrites
    the rows, and sound-freq's rows are its own.
    """
    length = frame.fft_length
    window = rows[:, :length]
    np.fft.fft(window, axis=1, out=window)
    bins = [frame.bin_index(tone_offset) for tone_offset in tones]
    return [[(abs(spectrum[k]) / length) ** 2 for k in bins]
            for spectrum in window]


def narrowband_losses(rows: np.ndarray, frame: FrequencySetup, tones,
                      tx_powers_db) -> list:
    """Per tone, its narrowband path loss at every carrier step.

    rows holds one capture per carrier step, in carrier order, and is
    overwritten by the spectra that bin_power reads. Tone k is
    sent by a transmitter of tx_powers_db[k], so its loss at a step is
    tx_powers_db[k] - 10*log10(bin power), or None where its bin holds
    no power.
    """
    losses = [[] for _ in tones]
    for powers in bin_power(rows, frame, tones):
        for tone_losses, tx_power_db, power in zip(losses, tx_powers_db,
                                                   powers):
            tone_losses.append(tx_power_db - 10.0 * math.log10(power)
                               if power > 0.0 else None)
    return losses


def unit_tones(frame: FrequencySetup) -> np.ndarray:
    """The frame's read-only unit tones, one row per tone offset in the
    frame's order: exp(j*2*pi*tone_offset*t) over the step's first FFT
    window, the samples that bin_power reads. A campaign computes them
    once per frame, before the first location."""
    t = np.arange(frame.fft_length) / frame.sample_rate_hz
    tones = np.stack([np.exp(2j * np.pi * tone_offset * t)
                      for tone_offset in frame.tone_offsets_hz])
    tones.flags.writeable = False
    return tones


def received_tone(channel: MultipathChannel, carrier: float, tone_offset: float,
                  unit_tone: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """Steady-state received samples of a unit-amplitude tone through a
    multipath channel, written into out and returned.

    Each tap contributes a copy of the unit tone scaled by its gain and
    rotated by the carrier-plus-offset phase its delay accumulates; the
    per-tap sum is the time-domain equivalent of multiplying by the
    channel transfer value at carrier + offset. The first tap's copy is
    written into out and every later one, formed in scratch, is added to
    it, tap by tap in order: the same bits as summing the taps into
    zeros. out and scratch hold as many complex samples as unit_tone.
    """
    coefficients = (gain * np.exp(-2j * np.pi * (carrier + tone_offset) * delay)
                    for gain, delay in zip(channel.gains, channel.delays))
    np.multiply(next(coefficients), unit_tone, out=out)
    for c in coefficients:
        np.multiply(c, unit_tone, out=scratch)
        out += scratch
    return out


def compose_sweep_capture(channels, frame: FrequencySetup, units: np.ndarray,
                          seeds, noise_power_dbfs: float | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """One sweep frame's captures, one row per carrier step: the received
    tones of several simultaneous transmitters, superposed, over the
    step's first FFT window (the width of units).

    channels: one per tone of the frame, at least one; channels[k] carries
    the frame's k-th tone, whose unit tone is row k of units (unit_tones).
    Tones are transmitted at unit amplitude; any level difference between
    transmitters lives in the channel gains. Each row is written in
    place: the first tone straight into it, each further one formed in
    its own buffer and then added. Noise, when asked for, is added to
    row k by channel.add_noise from a generator seeded with seeds[k],
    drawn over the whole step, so each window holds the noise of the
    step's first samples.

    out, when given, is a complex128 (steps, samples) array, such as an
    earlier frame's rows, that is overwritten and returned: a campaign
    holds one frame's rows, and the allocator has none to free and map
    again at every location.
    """
    n = units.shape[1]
    rows = (np.empty((len(frame.carriers_hz), n), dtype=np.complex128)
            if out is None else out)
    scratch = np.empty(n, dtype=np.complex128)
    other = np.empty(n, dtype=np.complex128)
    for row, carrier, seed in zip(rows, frame.carriers_hz, seeds, strict=True):
        for k, (chan, tone_offset, unit) in enumerate(
                zip(channels, frame.tone_offsets_hz, units, strict=True)):
            tone = received_tone(chan, float(carrier), tone_offset, unit,
                                 out=other if k else row, scratch=scratch)
            if k:
                row += tone
        add_noise(row, noise_power_dbfs, seed, frame.step_samples)
    return rows
