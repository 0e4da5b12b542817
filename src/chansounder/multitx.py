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

from chansounder.channel import (ChannelOutput, MultipathChannel, add_noise,
                                 apply_channel)
from chansounder.pulse import BasebandSignal, check_finite
from chansounder.sweep import FrequencySetup

PARK_OFF_BAND = "off_band"
PARK_IN_BAND = "in_band"

# The longest TDMA slot or sweep carrier step, in samples: 64 MiB of
# complex128, about 77 times the 54616-sample slot of the criterion-9
# campaign.
MAX_SLOT_SAMPLES = 2 ** 22


@dataclass(frozen=True)
class ScheduleSetup:
    """The scenario's schedule block, from which build_schedule sizes the
    slots: an explicit slot length, or None for the smallest slot that
    holds the burst, and the share of the slot each guard may take."""

    slot_length_s: float | None = None
    guard_fraction: float = 0.05

    def __post_init__(self):
        if self.slot_length_s is not None and self.slot_length_s <= 0:
            raise ValueError("slot_length_s: must be positive")
        if not 0.0 <= self.guard_fraction < 0.5:
            raise ValueError("guard_fraction: must be in [0, 0.5)")


@dataclass(frozen=True)
class TdmaSchedule:
    """Round-robin TDMA geometry of one capture period, in samples.

    Slot i covers samples [i * slot_samples, (i + 1) * slot_samples) of
    every period. A transmitter starts its burst guard_samples into its
    slot, and the receiver trims guard_samples from both ends of every
    slot, so each segment starts at its burst's first sample.
    """

    transmitter_count: int
    slot_samples: int
    guard_samples: int

    def __post_init__(self):
        if self.transmitter_count < 1:
            raise ValueError("transmitter_count: must be >= 1")
        if self.slot_samples < 1:
            raise ValueError("slot_samples: must be positive")
        if self.guard_samples < 0:
            raise ValueError("guard_samples: must be nonnegative")
        if 2 * self.guard_samples >= self.slot_samples:
            raise ValueError(
                f"guard_samples: two guards of {self.guard_samples} samples "
                f"would consume the whole {self.slot_samples}-sample slot")

    @property
    def period_samples(self) -> int:
        return self.slot_samples * self.transmitter_count


@dataclass(frozen=True)
class LeakageModel:
    """Attenuation of a non-active transmitter's waveform, in dB below
    its nominal power. Parked off-band (the mitigation) vs emitting a
    null source in-band (the naive idle mode)."""

    parked_leakage_db: float = math.inf
    inband_null_leakage_db: float = 30.0

    def __post_init__(self):
        for name in ("parked_leakage_db", "inband_null_leakage_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be nonnegative")

    def gain(self, park_mode: str) -> float:
        """The amplitude gain of every idle transmitter parked in
        park_mode: the leak_gain that compose_received takes."""
        if park_mode == PARK_OFF_BAND:
            att = self.parked_leakage_db
        elif park_mode == PARK_IN_BAND:
            att = self.inband_null_leakage_db
        else:
            raise ValueError(f"unknown park mode {park_mode!r}")
        return 0.0 if att == math.inf else 10.0 ** (-att / 20.0)


@dataclass(frozen=True)
class SceneTransmitter:
    """One transmitter's contribution to a composed capture. Its clock
    runs clock_offset_samples ahead of the receiver's: it perceives
    capture sample k as sample k + clock_offset_samples of the period."""

    waveform: BasebandSignal
    channel: MultipathChannel
    clock_offset_samples: int = 0


@dataclass(frozen=True)
class SegmentedCapture:
    """One TDMA period cut into its slots' segments: a stack with one row
    per transmitter, and the guard/core power ratio that flags it."""

    segments: BasebandSignal
    guard_core_ratio: float
    misaligned: bool


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


def _place_by_slices(out, received: ChannelOutput, offset_samples, slot_index,
                     schedule: TdmaSchedule, leak_gain):
    """Add one transmitter's bursts and leakage to out, read from the
    period form of its received waveform.

    Sample k is perceived at k + offset_samples, so the slot repeats at
    capture samples slot_index * slot_samples - offset_samples (mod
    period_samples), and each burst starts guard_samples into it.
    Each sample gets the same single addend as mapping every sample
    through its perceived slot position would give it, bit for bit.
    """
    n = len(out)
    slot_samples = schedule.slot_samples
    period_samples = schedule.period_samples
    if leak_gain > 0.0:
        scaled = leak_gain * received.samples
    first = (slot_index * slot_samples - offset_samples) % period_samples
    if first + slot_samples > period_samples:
        first -= period_samples  # a slot straddles sample 0
    idle_from = 0
    for slot_lo in range(first, n, period_samples):
        lo = max(slot_lo, 0)
        hi = min(slot_lo + slot_samples, n)
        burst_lo = slot_lo + schedule.guard_samples
        a = max(lo, burst_lo)
        b = min(hi, burst_lo + received.length)
        if b > a:
            _add_span(out, a, received, received.samples, a - burst_lo, b - a)
        if leak_gain > 0.0:
            _add_wrapped(out, received, scaled, idle_from, lo, offset_samples)
        idle_from = hi
    if leak_gain > 0.0:
        _add_wrapped(out, received, scaled, idle_from, n, offset_samples)


def _add_span(out, k, received: ChannelOutput, samples, j, m):
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


def _add_wrapped(out, received: ChannelOutput, scaled, lo, hi, offset_samples):
    """out[k] += leak_gain * waveform[(k + offset_samples) % received.length]
    for lo <= k < hi, one span per wrap of the waveform, read from scaled,
    the period form times leak_gain."""
    length = received.length
    k = lo
    while k < hi:
        j = (k + offset_samples) % length
        m = min(hi - k, length - j)
        _add_span(out, k, received, scaled, j, m)
        k += m


def compose_received(scene, schedule: TdmaSchedule, leak_gain: float = 0.0,
                     noise_power_dbfs: float | None = None,
                     seed: int = 0, period: int | None = None,
                     ramp: int = 0) -> np.ndarray:
    """Sum every transmitter's channel-filtered waveform over one TDMA
    period of the receiver's clock, on the scene's sample rate.

    Transmitter i bursts during its own (clock-perceived) slot i,
    starting guard_samples into it; everywhere else it contributes a
    periodically tiled copy scaled by leak_gain — the correlated leakage
    that creates the near-far problem. One leak gain holds for the whole
    scene: a scenario's LeakageModel.gain of its park mode, or 0.0 for
    silent idle transmitters. The capture's time axis is the first
    waveform's, so a burst that starts a segment keeps its own time
    axis. Bursts and leakage are added straight from the period
    form of each received waveform (apply_channel): its head and tail by
    slices, its steady state as whole periods in broadcast adds, the
    leakage from one leak-scaled copy of that form. No capture-length
    tile and no full-length received waveform is built. Noise, when
    asked for, is added in place by channel.add_noise from a generator
    seeded with seed, through its buffer of at most NOISE_CHUNK floats,
    so the capture is the one capture-length array made here. A period
    and ramp state that every waveform repeats between its ramps, and go
    to apply_channel.

    Returns the capture's samples, not yet checked: segment_capture
    proves them finite with the slot powers that it sums anyway, so no
    pass over the capture is made for the check alone. A sum that
    overflows raises no numpy warning here; that check reports it.
    """
    if not scene:
        raise ValueError("scene must contain at least one transmitter")
    if len(scene) > schedule.transmitter_count:
        raise ValueError(
            f"scene has {len(scene)} transmitters but the schedule only "
            f"{schedule.transmitter_count} slots"
        )
    rate = scene[0].waveform.sample_rate
    for tx in scene:
        if tx.waveform.sample_rate != rate:
            raise ValueError("all scene waveforms must share one sample rate")

    n = schedule.period_samples
    out = np.zeros(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, tx in enumerate(scene):
            received = apply_channel(tx.waveform, tx.channel, period, ramp)
            _place_by_slices(out, received, tx.clock_offset_samples, i,
                             schedule, leak_gain)
        add_noise(out, noise_power_dbfs, seed)
    return out


def _mean_power(samples: np.ndarray) -> float:
    """mean(|x|^2) of a contiguous complex array: one sum of products
    over its interleaved float parts, with no squared temporary. Not
    np.vdot: that hands long vectors to the BLAS thread pool, whose
    threads then take CPU time from the other campaign workers."""
    parts = samples.view(np.float64)
    return np.einsum("i,i->", parts, parts) / len(samples)


def guard_core_power_ratio(samples: np.ndarray,
                           schedule: TdmaSchedule) -> float:
    """Power in the guard trims relative to the busiest slot core, of a
    contiguous complex128 capture, whose samples it proves finite.

    Bursts sit inside the slot cores and leave the guard trims nearly
    silent; once clock error pushes a burst past its guard, the ratio
    approaches one. Offsets that are exact multiples of the slot length
    move bursts whole slots and remain invisible here.

    A sum of squares is finite only when every summand is, so a finite
    mean power proves its region finite. The exact check reads only what
    that leaves unproven: the whole capture when a region's power is not
    finite (NaN or inf, or finite samples whose squares overflow) or
    when there is no guard, else the samples past the period. It raises
    ValueError("samples must be finite").
    """
    trim = schedule.guard_samples
    slot_samples = schedule.slot_samples
    guard_power = 0.0
    core_power = 0.0
    proven = 0
    if trim >= 1:
        finite = True
        for i in range(schedule.transmitter_count):
            lo = i * slot_samples
            hi = lo + slot_samples
            head = _mean_power(samples[lo:lo + trim])
            tail = _mean_power(samples[hi - trim:hi])
            core = _mean_power(samples[lo + trim:hi - trim])
            # each region by itself: max() passes over a NaN
            finite = finite and math.isfinite(head) and \
                math.isfinite(tail) and math.isfinite(core)
            guard_power = max(guard_power, head, tail)
            core_power = max(core_power, core)
        if finite:
            proven = schedule.period_samples
    check_finite(samples[proven:])
    if core_power == 0.0:
        return 0.0
    return float(guard_power / core_power)


def segment_capture(samples: np.ndarray, schedule: TdmaSchedule,
                    sample_rate: float,
                    origin_time: float = 0.0) -> SegmentedCapture:
    """Split one TDMA period of capture samples (compose_received's) on
    sample_rate, sample 0 at origin_time, into per-transmitter segments.

    The capture must begin at a period boundary of the receiver's clock
    and span at least one period. Its samples are checked here, once, by
    guard_core_power_ratio, which raises ValueError("samples must be
    finite"). The schedule's guard is discarded from both ends of every
    slot to absorb small clock offsets, so segment i starts where
    transmitter i's burst starts when its clock agrees with the
    receiver's. The segments are one stack, a strided
    (transmitter_count, slot_samples - 2 * guard_samples) view of the
    checked capture with its origin_time. Captures whose guard regions
    carry slot-core-level power are flagged as misaligned.
    """
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    if len(samples) < schedule.period_samples:
        raise ValueError(
            f"capture of {len(samples)} samples is shorter than one TDMA "
            f"period ({schedule.period_samples} samples)"
        )
    ratio = guard_core_power_ratio(samples, schedule)
    capture = BasebandSignal.checked(samples, sample_rate, origin_time)
    slot_samples, trim = schedule.slot_samples, schedule.guard_samples
    return SegmentedCapture(
        segments=capture.rows(trim, slot_samples, schedule.transmitter_count,
                              slot_samples - 2 * trim),
        guard_core_ratio=ratio,
        misaligned=ratio > 0.25,
    )


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
    if transmitter_count < 1:
        raise ValueError("transmitter_count: must be >= 1")
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
    # how many tones actually fit between start and the Nyquist edge
    fit = int(math.floor((sample_rate / 2.0 - bin_width - start) / spacing)) + 1
    capacity = math.floor(min(capacity, fit))
    if capacity < 1:
        raise ValueError(
            f"guard_band_hz: no tone fits the {sample_rate} Hz band with "
            f"guard {guard_band} Hz"
        )

    tones = start + spacing * np.arange(min(transmitter_count, capacity))
    offsets = tuple(float(f) for f in tones)
    return [replace(setup, tone_offsets_hz=offsets[:transmitter_count - first])
            for first in range(0, transmitter_count, capacity)]
