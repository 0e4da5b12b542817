"""Coordination of simultaneous transmitters.

Sliding mode shares one band by TDMA: each transmitter owns a rotating
slot, bursts its PN waveform inside it, and leaks an attenuated copy the
rest of the time (an idle radio is never perfectly silent). The slot
geometry lives in one sample-domain TdmaSchedule, which both the
composition and the receiver's segmentation read; a node's clock offset,
in whole samples, shifts where it believes the slot boundaries are.
Frequency mode separates transmitters by tone frequency instead, packing
bin-centered tones with a guard band and spilling into extra time frames
when one frame's capacity runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from chansounder.channel import (MAX_SLOT_SAMPLES, POWER_LIMIT_DB, add_noise,
                                 apply_channel)
from chansounder.pulse import BasebandSignal, PeriodForm
from chansounder.schema import check_ranges, within
from chansounder.sweep import FrequencySetup

PARK_OFF_BAND = "off_band"
PARK_IN_BAND = "in_band"
# the guard/core power ratio above which a capture is misaligned
_MISALIGNED_RATIO = 0.25


@dataclass(frozen=True)
class ScheduleSetup:
    """The scenario's schedule block, from which build_schedule sizes the
    slots: an explicit slot length, or None for the smallest slot that
    holds the burst, and the share of the slot each guard may take: at
    most 45%, so that the burst has a tenth of its slot."""

    slot_length_s: float | None = within(1e-9, 1.0, "s", default=None)
    guard_fraction: float = within(0.0, 0.45, default=0.05)

    def __post_init__(self):
        check_ranges(self)


@dataclass(frozen=True)
class TdmaSchedule:
    """Round-robin TDMA geometry of one capture period, in samples.

    Slot i covers samples [i * slot_samples, (i + 1) * slot_samples) of
    every period. A transmitter starts its burst guard_samples into its
    slot, and the receiver trims guard_samples from both ends of every
    slot, so each segment starts at its burst's first sample.
    build_schedule makes one with at least one slot and two guards that
    leave room for the burst between them.
    """

    transmitter_count: int
    slot_samples: int
    guard_samples: int

    @property
    def period_samples(self) -> int:
        return self.slot_samples * self.transmitter_count


@dataclass(frozen=True)
class LeakageModel:
    """Attenuation of a non-active transmitter's waveform, in dB below
    its nominal power, in the power range or inf where it leaks nothing:
    parked off-band (the mitigation) vs emitting a null source in-band
    (the naive idle mode)."""

    parked_leakage_db: float = within(0.0, POWER_LIMIT_DB, "dB",
                                      default=math.inf, also=math.inf)
    inband_null_leakage_db: float = within(0.0, POWER_LIMIT_DB, "dB",
                                           default=30.0, also=math.inf)

    def __post_init__(self):
        check_ranges(self)

    def gain(self, park_mode: str) -> float:
        """The amplitude gain of every idle transmitter parked in
        park_mode, PARK_OFF_BAND or PARK_IN_BAND: the leak_gain that
        compose_received takes."""
        att = (self.parked_leakage_db if park_mode == PARK_OFF_BAND
               else self.inband_null_leakage_db)
        return 0.0 if att == math.inf else 10.0 ** (-att / 20.0)


def build_schedule(setup: ScheduleSetup, transmitter_count: int,
                   burst_samples: int, samples_per_symbol: int,
                   sample_rate: float) -> TdmaSchedule:
    """The TDMA geometry for bursts of burst_samples, with the slot and
    the guard both whole symbols.

    With no slot_length_s the slot is the smallest that holds the burst
    between two guards of guard_fraction. An explicit slot_length_s is
    rounded to samples and then down to symbols, and raises, naming
    slot_length_s, when it cannot hold the burst; its guard is also
    capped at guard_fraction of the slot. Either way the guard is the
    largest that fits on both sides of the burst. A slot above
    MAX_SLOT_SAMPLES raises, naming the field that set it, before
    anything is allocated.
    """
    sps = samples_per_symbol
    if setup.slot_length_s is None:
        name = "guard_fraction"
        fraction = setup.guard_fraction
        slot = math.ceil(burst_samples / (1.0 - 2.0 * fraction) / sps) * sps
    else:
        name = "slot_length_s"
        slot = setup.slot_length_s * sample_rate  # a float until bounded
    if slot > MAX_SLOT_SAMPLES:
        raise ValueError(f"{name}: a slot of {slot:.6g} samples is above "
                         f"the {MAX_SLOT_SAMPLES}-sample limit")
    if setup.slot_length_s is not None:
        slot = int(round(slot))
        slot -= slot % sps
        if slot < burst_samples:
            raise ValueError(
                f"slot_length_s: slot of {slot} samples cannot hold "
                f"the {burst_samples}-sample burst"
            )
    guard = ((slot - burst_samples) // 2) // sps * sps
    if setup.slot_length_s is not None:
        guard = min(guard, int(setup.guard_fraction * slot) // sps * sps)
    return TdmaSchedule(transmitter_count, slot, guard)


def _arcs(start, length, n):
    """The arc of `length` samples from sample `start` of a period of n
    samples, as two (k, j, m) spans, samples [k, k + m) from j samples
    into the arc: the part up to sample n - 1, and the part that wraps
    to sample 0, empty if none."""
    first = min(length, n - start)
    return (start, 0, first), (0, first, length - first)


def _place_by_slices(out, received: PeriodForm, offset_samples, slot_index,
                     schedule: TdmaSchedule, leak_gain):
    """Add one transmitter's burst and leakage to out, one period of the
    receiver's clock, read from the period form of its received waveform.

    Sample k is perceived at k + offset_samples, so the slot is the arc
    of slot_samples from slot_index * slot_samples - offset_samples
    (mod period_samples). The burst is the arc guard_samples into it,
    cut at the slot's end. The leakage fills the rest of the period:
    out[k] += leak_gain * waveform[(k + offset_samples) % received.length],
    one span per wrap of the waveform, read from the period form times
    leak_gain. Each sample gets the single addend that mapping it through
    its perceived slot position gives it, bit for bit.
    """
    n, length = schedule.period_samples, received.length
    slot, guard = schedule.slot_samples, schedule.guard_samples
    start = (slot_index * slot - offset_samples) % n
    for k, j, m in _arcs((start + guard) % n, min(length, slot - guard), n):
        _add_span(out, k, received, received.samples, j, m)
    if leak_gain > 0.0:
        scaled = leak_gain * received.samples
        for k, _, m in _arcs((start + slot) % n, n - slot, n):
            stop = k + m
            while k < stop:
                j = (k + offset_samples) % length
                m = min(stop - k, length - j)
                _add_span(out, k, received, scaled, j, m)
                k += m


def _add_span(out, k, received: PeriodForm, samples, j, m):
    """out[k:k + m] += waveform[j:j + m] for a span inside received's
    waveform, read from samples: its period form or a scaled copy of it.
    The head and the tail are added by slices, the steady state as one
    broadcast add of the period over the whole periods, after the rest
    of the period the span starts in and before the start of the one it
    ends in."""
    head, period, tail = received.head, received.period, received.tail
    stop = j + m
    if j < head:
        m = min(stop, head) - j
        out[k:k + m] += samples[j:j + m]
        k, j = k + m, j + m
    if j < min(stop, tail):
        steady = samples[head - period:head]
        phase = (j - head) % period
        m = min(stop, tail, j + period - phase) - j
        out[k:k + m] += steady[phase:phase + m]
        k, j = k + m, j + m
        whole = (min(stop, tail) - j) // period
        out[k:k + whole * period].reshape(whole, period)[:] += steady
        k, j = k + whole * period, j + whole * period
        m = min(stop, tail) - j
        out[k:k + m] += steady[:m]
        k, j = k + m, j + m
    if j < stop:
        out[k:k + stop - j] += samples[j - tail + head:stop - tail + head]


def compose_received(waveforms, channels, offsets, schedule: TdmaSchedule,
                     leak_gain: float = 0.0,
                     noise_power_dbfs: float | None = None,
                     seed: int = 0) -> BasebandSignal:
    """Sum every transmitter's channel-filtered waveform over one TDMA
    period of the receiver's clock: a capture of period_samples new
    complex128 samples on the waveforms' sample rate, whose time axis is
    the first waveform's.

    Transmitter i sends waveforms[i], a burst in period form, through
    channels[i], with at most one transmitter per slot and all on one
    sample rate, as a campaign prepares them. Its clock runs offsets[i]
    samples ahead of the receiver's: it perceives capture sample k as
    sample k + offsets[i] of the period. It bursts guard_samples into its
    clock-perceived slot i and elsewhere leaks its waveform scaled by
    leak_gain (0.0 for silent idle transmitters). Noise of
    noise_power_dbfs, unless None, is added in place by channel.add_noise
    from a generator seeded with seed.
    """
    out = np.zeros(schedule.period_samples, dtype=np.complex128)
    for i, (waveform, channel, offset) in enumerate(
            zip(waveforms, channels, offsets, strict=True)):
        _place_by_slices(out, apply_channel(waveform, channel), offset, i,
                         schedule, leak_gain)
    add_noise(out, noise_power_dbfs, seed)
    return BasebandSignal(out, waveforms[0].sample_rate,
                          waveforms[0].origin_time)


def misaligned(samples: np.ndarray, schedule: TdmaSchedule) -> bool:
    """Whether the guard/core power ratio of a contiguous complex128
    capture is above _MISALIGNED_RATIO: the mean power of the busiest
    guard trim over that of the busiest slot core, inf where a guard
    holds power and every core is silent, and 0 for a silent capture or
    one with no guard.

    Bursts sit inside the slot cores and leave the guard trims nearly
    silent; once clock error pushes a burst past its guard, the ratio
    approaches one. Offsets that are exact multiples of the slot length
    move bursts whole slots and remain invisible here.

    The first period's slots are the rows of one view of the capture.
    Each region's power, sum(|x|^2) per row, is one sum of products over
    its float parts, with no squared temporary; not np.vdot, which hands
    long vectors to the BLAS thread pool, whose threads then take CPU
    time from the other campaign workers. The guards are summed first,
    and a silent guard ends the test. Otherwise the first guard_samples
    of each core are summed: a core's power is at least theirs, so where
    they hold enough power the ratio is below the bound by more than
    rounding, and no other sample is read. Only otherwise are the whole
    cores summed.
    """
    trim = schedule.guard_samples
    if trim == 0:
        return False
    slots = samples[:schedule.period_samples].reshape(
        schedule.transmitter_count, -1)

    def power(region):
        parts = region.view(np.float64)
        return float(np.einsum("ij,ij->i", parts, parts).max())

    guard = max(power(slots[:, :trim]), power(slots[:, -trim:])) / trim
    if guard == 0.0:
        return False
    cores = slots[:, trim:-trim]
    length = cores.shape[1]
    if guard * length <= _MISALIGNED_RATIO * (1 - 1e-9) * power(cores[:, :trim]):
        return False
    core = power(cores) / length
    if core == 0.0:
        return True
    return guard / core > _MISALIGNED_RATIO


def segment_capture(capture: BasebandSignal,
                    schedule: TdmaSchedule) -> BasebandSignal:
    """Split one TDMA period of a capture into per-transmitter segments.

    The capture's samples, a contiguous complex128 array, must begin at a
    period boundary of the receiver's clock and span at least one period,
    as compose_received's do. The schedule's guard is discarded from both
    ends of every slot to absorb small clock offsets, so segment i starts
    where transmitter i's burst starts when its clock agrees with the
    receiver's. The segments are one stack, a read-only
    (transmitter_count, slot_samples - 2 * guard_samples) view of the
    capture's first period, on the capture's sample rate and origin time.
    """
    trim = schedule.guard_samples
    segments = capture.samples[:schedule.period_samples].reshape(
        schedule.transmitter_count, -1)[:, trim:schedule.slot_samples - trim]
    segments.flags.writeable = False
    return BasebandSignal(segments, capture.sample_rate, capture.origin_time)


def build_frequency_plan(setup: FrequencySetup,
                         transmitter_count: int) -> list[FrequencySetup]:
    """The sweep frames of a frequency block: copies of it, one per time
    frame, each with its frame's tones in tone_offsets_hz.

    Explicit tone_offsets_hz give one frame with one tone per
    transmitter. Otherwise bin-centered tones are packed from the bottom
    of the Nyquist band with at least a guard band between neighbors;
    when the count exceeds one frame's capacity the surplus rolls into
    additional time frames (separation in both time and frequency).
    Transmitter k sends the k-th tone of the frames taken in order: tone
    k % capacity of frame k // capacity, where capacity is the first
    frame's tone count. Raises when the capacity is zero, naming the
    guard band.
    """
    if setup.tone_offsets_hz is not None:
        if len(setup.tone_offsets_hz) != transmitter_count:
            raise ValueError("tone_offsets_hz: one tone per transmitter")
        return [setup]
    sample_rate, guard_band = setup.sample_rate_hz, setup.guard_band_hz
    if guard_band <= 0:
        raise ValueError("guard_band_hz: must be positive")
    capacity = (sample_rate - guard_band) / guard_band  # inf for a tiny guard
    if capacity < 1:
        raise ValueError(
            f"guard_band_hz: {guard_band} Hz leaves no room in the "
            f"{sample_rate} Hz Nyquist band (capacity 0)"
        )

    # tones sit at least one bin apart, and at least one bin above the
    # -Nyquist bin, which aliases the +Nyquist one, however small the guard
    length = setup.fft_length
    bin_width = sample_rate / length
    spacing = max(math.ceil(guard_band / bin_width - 1e-9), 1) * bin_width
    start = max(math.ceil((-sample_rate / 2.0 + guard_band) / bin_width),
                -((length - 1) // 2)) * bin_width
    # how many tones actually fit between start and the Nyquist edge: at
    # least one, as the guard is at most half the band, so start <= 0
    fit = int(math.floor((sample_rate / 2.0 - bin_width - start) / spacing)) + 1
    capacity = math.floor(min(capacity, fit))

    tones = start + spacing * np.arange(min(transmitter_count, capacity))
    offsets = tuple(float(f) for f in tones)
    return [replace(setup, tone_offsets_hz=offsets[:transmitter_count - first])
            for first in range(0, transmitter_count, capacity)]
