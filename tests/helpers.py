"""Shared helpers for the module and acceptance test suites."""

import dataclasses
import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from chansounder import campaign
from chansounder import channel as ch
from chansounder import multitx, pulse, schema, sliding, sweep
from chansounder.exceptions import NoSignalError
from chansounder.pn import circular_correlate


def planted_capture(chips, taps, channel, config, extra_periods=2):
    """Transmit, apply a planted channel, and return the capture."""
    tx = pulse.modulate(chips, config.averaging_periods + extra_periods,
                        taps, config.chip_period_s)
    return received(tx, channel)


def received(signal, channel):
    """apply_channel's waveform as the signal that carries it: the
    received waveform on signal's rate and time axis."""
    return expanded(ch.apply_channel(signal, channel))


def expand(form):
    """The whole waveform of a period form: its head, the steady period
    repeated up to the tail, and the tail."""
    head, period, tail = form.head, form.period, form.tail
    steady = form.samples[head - period:head] if period else form.samples[:0]
    return np.concatenate([form.samples[:head],
                           np.resize(steady, tail - head),
                           form.samples[head:]])


def expanded(form):
    """A period form's whole waveform as a signal on its rate and time
    axis."""
    return pulse.BasebandSignal(expand(form), form.sample_rate,
                                form.origin_time)


def whole(signal):
    """A signal as the period form that holds it whole (period 0)."""
    samples = np.asarray(signal.samples, dtype=np.complex128)
    return pulse.PeriodForm(samples, len(samples), 0, len(samples),
                            signal.sample_rate, signal.origin_time)


def period_form(samples, period, ramp, sample_rate=1.0):
    """The period form of a waveform whose samples[ramp:len - ramp]
    repeat every period, as modulate holds its burst: the ramp-in and
    two periods, then one period and the ramp-out, or the whole waveform
    when nothing repeats between them."""
    samples = np.asarray(samples, dtype=np.complex128)
    length = len(samples)
    head, tail = ramp + 2 * period, length - period - ramp
    if tail <= head:
        return whole(pulse.BasebandSignal(samples, sample_rate))
    return pulse.PeriodForm(np.concatenate([samples[:head], samples[tail:]]),
                            head, period, length, sample_rate, 0.0)


def modulated(chips, repetitions, taps, chip_period):
    """modulate's burst as one whole signal."""
    return expanded(pulse.modulate(chips, repetitions, taps, chip_period))


def oracle_modulate(chips, repetitions, taps, chip_period):
    """modulate as it built the whole burst before its period form: the
    ramp-in, one period and the ramp-out shaped from the fewest periods
    that hold them, and the period tiled in between. The reference that
    the expanded period form must equal bit for bit."""
    period, ramp = pulse.burst_period_and_ramp(chips, taps)
    shaped = min(repetitions, 1 + -(-ramp // period))
    short = pulse.shape_symbols(np.tile(chips.chips, shaped), taps,
                                chip_period)
    if shaped == repetitions:
        return short
    samples = np.empty(repetitions * period + ramp, dtype=np.complex128)
    samples[:ramp + period] = short.samples[:ramp + period]
    start, stop = ramp, len(samples) - ramp
    whole_periods = (stop - start) // period
    end = start + whole_periods * period
    samples[start + period:end].reshape(whole_periods - 1, period)[:] = \
        samples[start:start + period]
    samples[end:stop] = samples[start:start + stop - end]
    samples[len(samples) - ramp:] = short.samples[len(short) - ramp:]
    return pulse.BasebandSignal(samples=samples, sample_rate=short.sample_rate,
                                origin_time=short.origin_time)


def direct_sum(form, channel):
    """The per-tap sum over every sample of a period form's whole
    waveform: one scaled, shifted copy per tap, added in tap order."""
    samples = expand(form)
    shifts = [int(round(d * form.sample_rate)) for d in channel.delays]
    out = np.zeros(len(samples) + shifts[-1], dtype=np.complex128)
    for gain, shift in zip(channel.gains, shifts):
        out[shift:shift + len(samples)] += gain * samples
    return out


def one_row(signal):
    """signal as a one-row stack, as sound-sliding hands its capture to
    the receive chain."""
    return replace(signal, samples=signal.samples[np.newaxis])


def measure_one(capture, chips, taps, config, tx_power_db=0.0):
    """measure_sliding on capture as a one-row stack, as sound-sliding
    runs it: the row's profile, or its NoSignalError raised."""
    [profile] = sliding.measure_sliding(one_row(capture), chips, taps, config,
                                        [tx_power_db])
    if isinstance(profile, NoSignalError):
        raise profile
    return profile


def tap_lags(profile):
    """A delay-profile document's tap lags, as an int64 array."""
    return np.array([tap["lag"] for tap in profile["taps"]], dtype=np.int64)


def tap_gains(profile):
    """A delay-profile document's tap gains, as a complex128 array whose
    bits are the document's floats (a -0.0 part stays -0.0)."""
    return np.array([complex(tap["gain_re"], tap["gain_im"])
                     for tap in profile["taps"]], dtype=np.complex128)


def write_iq(signal, path):
    """Write a capture as the program reads one: interleaved little-endian
    float32 I/Q, plus its IqSidecar at path + ".json"."""
    interleaved = np.empty(2 * len(signal), dtype="<f4")
    interleaved[0::2] = signal.samples.real
    interleaved[1::2] = signal.samples.imag
    interleaved.tofile(path)
    save_document(pulse.IqSidecar(format=pulse.IQ_FORMAT,
                                  sample_rate_hz=signal.sample_rate,
                                  origin_time_s=signal.origin_time,
                                  sample_count=len(signal)),
                  f"{path}.json")


def save_document(value, path):
    """Write a dataclass as the JSON document schema.load reads back."""
    Path(path).write_text(json.dumps(schema.to_json(value), indent=2) + "\n")


def add_noise(signal, noise_power_dbfs, seed):
    """signal plus the capture noise that compose_received draws: one
    transmitter owns the whole capture through a unit channel."""
    schedule = multitx.TdmaSchedule(1, len(signal), 0)
    unit = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    return multitx.compose_received(
        [whole(signal)], [unit], [0], schedule,
        noise_power_dbfs=noise_power_dbfs, seed=seed)


def bench_scenario(workload, seed, locations):
    """A campaign benchmark workload's scenario at seed, cut to its first
    locations."""
    path = Path(__file__).resolve().parent.parent / "campaignbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scenario = workloads.WORKLOADS[workload](seed)
    return replace(scenario,
                   receiver_path=scenario.receiver_path[:locations])


def assert_no_child_left():
    """No forked worker of this process is left running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_channel_draw(monkeypatch, position, error):
    """Make campaign channel draws raise error at one receiver position,
    in this process and in every worker forked after this call."""
    draw = campaign.synthesize_channel

    def synthesize(environment, tx_position, rx_position, *args, **kwargs):
        if tuple(rx_position) == tuple(position):
            raise error
        return draw(environment, tx_position, rx_position, *args, **kwargs)

    monkeypatch.setattr(campaign, "synthesize_channel", synthesize)


def oracle_guard_core_power_ratio(samples, schedule):
    """The guard/core power ratio that multitx.misaligned compares with
    0.25, with np.mean(np.abs(x) ** 2) per region."""
    trim = schedule.guard_samples
    if trim < 1:
        return 0.0
    slot_samples = schedule.slot_samples
    guard_power = core_power = 0.0
    for i in range(schedule.transmitter_count):
        lo = i * slot_samples
        hi = lo + slot_samples
        head = np.mean(np.abs(samples[lo:lo + trim]) ** 2)
        tail = np.mean(np.abs(samples[hi - trim:hi]) ** 2)
        core = np.mean(np.abs(samples[lo + trim:hi - trim]) ** 2)
        guard_power = max(guard_power, head, tail)
        core_power = max(core_power, core)
    if core_power == 0.0:
        return math.inf if guard_power > 0.0 else 0.0
    return float(guard_power / core_power)


def declared(kind, name):
    """The field name of the dataclass kind."""
    [field] = [f for f in dataclasses.fields(kind) if f.name == name]
    return field


def field_range(kind, name):
    """(lo, hi, also) of the range that schema.within declares for the
    field name of the dataclass kind."""
    lo, hi, _, also = declared(kind, name).metadata["range"]
    return lo, hi, also


def ranged(kind, name, **bounds):
    """Every number in the declared range of kind's field name, narrowed
    by min_value and max_value where given, and its extra value:
    integers for an integer range, else finite floats."""
    lo, hi, extra = field_range(kind, name)
    lo, hi = max(lo, bounds.get("min_value", lo)), min(hi, bounds.get("max_value", hi))
    numbers = (st.integers(lo, hi) if isinstance(lo, int) and isinstance(hi, int)
               else st.floats(lo, hi, allow_infinity=False))
    return numbers if extra is None else numbers | st.just(extra)


@st.composite
def frequency_blocks(draw, explicit_tones=True):
    """Valid frequency blocks, each number drawn from its field's range:
    1-4 carriers a uniform 1 kHz to 100 MHz apart, a step of at least two
    samples, an FFT that fits it, a guard band from half a bin to 60% of
    the band, and the tones left to the packer or, with explicit_tones,
    one tone on the bin grid."""
    kind = sweep.FrequencySetup
    count = draw(st.integers(1, 4))
    spacing = draw(st.floats(1e3, 1e8))
    start = draw(ranged(kind, "carriers_hz",
                        max_value=field_range(kind, "carriers_hz")[1]
                        - spacing * (count - 1)))
    sample_rate = draw(ranged(kind, "sample_rate_hz"))
    step = draw(ranged(kind, "step_duration_s", min_value=2 / sample_rate))
    fft_length = draw(ranged(kind, "fft_length",
                             max_value=round(step * sample_rate)))
    bin_width = sample_rate / fft_length
    tone_bin = st.integers(-(fft_length // 2) + 1, fft_length // 2 - 1)
    return kind(
        carriers_hz=tuple(start + spacing * k for k in range(count)),
        sample_rate_hz=sample_rate, fft_length=fft_length,
        guard_band_hz=draw(ranged(kind, "guard_band_hz",
                                  min_value=0.5 * bin_width,
                                  max_value=0.6 * sample_rate)),
        step_duration_s=step,
        tone_offsets_hz=draw(st.none() | tone_bin.map(lambda k: (k * bin_width,))
                             if explicit_tones else st.none()))


def default_plan():
    """The default frequency block with one tone 410 bins above DC: a
    one-frame plan as it stands."""
    return sweep.FrequencySetup(tone_offsets_hz=(410 * 1e6 / 4096,))


def static_sweep_losses(channel, frame, tx_power_db=0.0, tone=None,
                        noise_power_dbfs=None, seed=0):
    """Narrowband losses of one tone of frame (its first by default)
    through one static channel, on the campaign's sweep path: the rows
    of the frame cut to that tone from compose_sweep_capture, step k's
    noise seeded with seed + k, read by narrowband_losses."""
    tone = frame.tone_offsets_hz[0] if tone is None else tone
    frame = replace(frame, tone_offsets_hz=(tone,))
    seeds = [seed + step for step in range(len(frame.carriers_hz))]
    rows = sweep.compose_sweep_capture(
        [channel], frame, sweep.unit_tones(frame), seeds,
        noise_power_dbfs=noise_power_dbfs)
    [losses] = sweep.narrowband_losses(rows, frame, [tone], [tx_power_db])
    return np.asarray(losses)


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
    raw = circular_correlate(chips, mean_period)
    true_gain_sum = 1.0  # single planted tap of gain one
    corrected = (raw + true_gain_sum / n) * (n / (n + 1.0))
    peak_power = np.abs(corrected[0]) ** 2
    noise_power = np.mean(np.abs(corrected[1:]) ** 2)
    return 10 * math.log10(peak_power / noise_power) - symbol_snr_db


def random_planted_channel(rng, chip_period, max_taps=8, max_span=50,
                           dynamic_range_db=40.0, min_taps=2):
    """Random integer-lag multipath channel within the stated envelope."""
    tap_count = int(rng.integers(min_taps, max_taps + 1))
    extra = rng.choice(np.arange(1, max_span + 1), size=tap_count - 1,
                       replace=False)
    lags = np.concatenate([[0], np.sort(extra)])
    levels_db = rng.uniform(-dynamic_range_db, 0.0, size=tap_count)
    levels_db[rng.integers(tap_count)] = 0.0  # anchor the strongest tap
    amplitudes = 10.0 ** (levels_db / 20.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=tap_count)
    gains = amplitudes * np.exp(1j * phases)
    return ch.MultipathChannel(gains=gains, delays=lags * chip_period), lags


def output_index(signal, taps, phase=0, symbols=0):
    """The index, in the full matched-filter output of each row of
    signal, of the output `symbols` symbols after the one at `phase`
    past t = 0 on the symbol grid: the output index that
    estimate_timing_phase and recover_symbols take, as measure_sliding
    counts it where t = 0 does not fall before the row."""
    half = (len(taps.coefficients) - 1) / 2
    first = int(round(-signal.origin_time * signal.sample_rate + half)) + phase
    assert first >= 0
    return first + symbols * taps.samples_per_symbol


def _oracle_filter(capture, taps):
    """The full np.convolve matched filter and the index of t = 0 in it."""
    return (np.convolve(capture.samples, taps.coefficients),
            output_index(capture, taps))


def oracle_timing_phase(capture, chips, taps, skip=0):
    """estimate_timing_phase with one full np.convolve matched filter and
    one 1-D FFT correlation per phase, over the chip period `skip`
    symbols past t = 0."""
    sps, n = taps.samples_per_symbol, chips.period_length
    filtered, origin = _oracle_filter(capture, taps)
    start = origin + skip * sps
    windows = filtered[start:start + n * sps].reshape(n, sps)
    return int(np.argmax(oracle_phase_energies(chips, windows)))


def oracle_folded_period(capture, taps, phase, period, periods, skip=0):
    """recover_symbols filtering first and averaging after: the full
    np.convolve matched filter, decimated at phase from the first symbol
    at or after t = 0, and its symbols from `skip` on averaged over
    `periods` periods of `period` symbols by a reshape-mean."""
    sps = taps.samples_per_symbol
    filtered, origin = _oracle_filter(capture, taps)
    symbols = filtered[origin + phase::sps][skip:]
    if len(symbols) < periods * period:
        raise ValueError(f"capture of {len(symbols)} symbols is shorter "
                         f"than {periods} periods")
    return symbols[:periods * period].reshape(periods, period).mean(axis=0)


def oracle_measure_sliding(capture, chips, taps, config, tx_power_db=0.0):
    """measure_sliding on one full np.convolve matched filter per segment,
    averaged after filtering: the pre-fold receive chain, kept as the
    reference that the folded recovery must match to rounding.
    """
    n = chips.period_length
    skip = sliding.SETTLE_PERIODS * n
    phase = oracle_timing_phase(capture, chips, taps, skip)
    mean_period = oracle_folded_period(capture, taps, phase, n,
                                       config.averaging_periods, skip)
    [profile] = sliding.sound(mean_period[None], chips, config, [tx_power_db])
    if isinstance(profile, NoSignalError):
        raise profile
    return profile


def oracle_received_tone(channel, carrier, tone_offset, frame):
    """received_tone with the unit tone re-evaluated for every tap."""
    n = int(round(frame.step_duration_s * frame.sample_rate_hz))
    t = np.arange(n) / frame.sample_rate_hz
    acc = np.zeros(n, dtype=np.complex128)
    for gain, delay in zip(channel.gains, channel.delays):
        acc += gain * np.exp(-2j * np.pi * (carrier + tone_offset) * delay) \
            * np.exp(2j * np.pi * tone_offset * t)
    return acc


def oracle_bin_power(capture, frame, tone_offsets):
    """One FFT per tone: the reference for bin_power's shared spectrum."""
    length = frame.fft_length
    return [(abs(np.fft.fft(capture.samples[:length])[frame.bin_index(f)])
             / length) ** 2 for f in tone_offsets]


def oracle_compose_sweep_capture(channels, frame, step, noise_power_dbfs=None,
                                 seed=0):
    """compose_sweep_capture seeding its generator up front, every time:
    channels[k] carries the frame's k-th tone."""
    n = int(round(frame.step_duration_s * frame.sample_rate_hz))
    rng = np.random.default_rng(seed)
    acc = np.zeros(n, dtype=np.complex128)
    carrier = float(frame.carriers_hz[step])
    for chan, tone_offset in zip(channels, frame.tone_offsets_hz, strict=True):
        acc += oracle_received_tone(chan, carrier, tone_offset, frame)
    if noise_power_dbfs is not None:
        sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
        acc += rng.normal(scale=sigma, size=n) + 1j * rng.normal(scale=sigma, size=n)
    return pulse.BasebandSignal(samples=acc, sample_rate=frame.sample_rate_hz)


def oracle_sweep_rows(channels, frame, units, seeds, noise_power_dbfs=None,
                      out=None):
    """compose_sweep_capture as one oracle_compose_sweep_capture per
    carrier step, stacked into a new array; the unit tones and out are
    not read."""
    return np.stack([oracle_compose_sweep_capture(
        channels, frame, step, noise_power_dbfs, seed).samples
        for step, seed in enumerate(seeds)])


def oracle_bin_rows(rows, frame, tone_offsets):
    """bin_power as one oracle_bin_power per row: one single-row FFT per
    tone and row."""
    return [oracle_bin_power(pulse.BasebandSignal(row, frame.sample_rate_hz),
                             frame, tone_offsets) for row in rows]


def use_oracle_sweep(monkeypatch):
    """Swap the sweep kernels for the per-step, per-tap, per-tone,
    eager-RNG oracles."""
    monkeypatch.setattr(sweep, "bin_power", oracle_bin_rows)
    monkeypatch.setattr(sweep, "compose_sweep_capture", oracle_sweep_rows)


def oracle_compose_received(waveforms, channels, offsets, schedule, leak_gain,
                            noise_power_dbfs=None, seed=0):
    """compose_received with a capture-length leakage tile per transmitter
    and complex A + 1j * B noise: the earlier composition that the
    wrapped-slice leakage and per-rail noise must match byte for byte.
    """
    slot = schedule.slot_samples
    n = period = schedule.period_samples
    out = np.zeros(n, dtype=np.complex128)
    for i, (waveform, channel, offset) in enumerate(
            zip(waveforms, channels, offsets, strict=True)):
        received = direct_sum(waveform, channel)
        if leak_gain > 0.0:
            tiled = np.resize(np.roll(received, -offset), n)
        first = (i * slot - offset) % period
        if first + slot > period:
            first -= period
        idle_from = 0
        for slot_lo in range(first, n, period):
            lo, hi = max(slot_lo, 0), min(slot_lo + slot, n)
            burst_lo = slot_lo + schedule.guard_samples
            a, b = max(lo, burst_lo), min(hi, burst_lo + len(received))
            if b > a:
                out[a:b] += received[a - burst_lo:b - burst_lo]
            if leak_gain > 0.0 and lo > idle_from:
                out[idle_from:lo] += leak_gain * tiled[idle_from:lo]
            idle_from = hi
        if leak_gain > 0.0 and n > idle_from:
            out[idle_from:] += leak_gain * tiled[idle_from:]
    if noise_power_dbfs is not None:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
        out += rng.normal(scale=sigma, size=n) + 1j * rng.normal(scale=sigma, size=n)
    return out


def per_sample_compose(waveforms, channels, offsets, schedule, leak_gain):
    """Noise-free compose_received that maps every sample through its
    perceived slot position: the reference for slice placement."""
    slot, period = schedule.slot_samples, schedule.period_samples
    out = np.zeros(period, dtype=np.complex128)
    for i, (waveform, channel, offset) in enumerate(
            zip(waveforms, channels, offsets, strict=True)):
        received = direct_sum(waveform, channel)
        perceived = np.arange(period) + offset
        local = perceived % period - i * slot
        active = (local >= 0) & (local < slot)
        burst_index = local - schedule.guard_samples
        valid = active & (burst_index >= 0) & (burst_index < len(received))
        out[valid] += received[burst_index[valid]]
        if leak_gain > 0.0:
            out[~active] += leak_gain * received[perceived[~active] % len(received)]
    return out


def oracle_phase_energies(chips, windows):
    """Profile energy per phase column of an (N, sps) window block, one
    1-D FFT correlation per phase: the timing search before its closed
    form."""
    return np.array([float(np.sum(np.abs(circular_correlate(
        chips, windows[:, phase])) ** 2))
        for phase in range(windows.shape[1])])


def oracle_threshold(corrected, config):
    """sliding._threshold through numpy's wrappers: np.abs, np.std and
    np.nonzero."""
    magnitudes = np.abs(corrected)
    peak = float(magnitudes.max())
    if peak == 0.0:
        raise NoSignalError("correlation profile is identically zero")
    relative_floor = peak * 10.0 ** (-config.detection_threshold_db / 20.0)
    off_peak = magnitudes[magnitudes < relative_floor]
    noise_floor = (sliding.DETECTION_SIGMA_FACTOR * float(np.std(off_peak))
                   if len(off_peak) else 0.0)
    threshold = max(relative_floor, noise_floor)
    detected = np.nonzero(magnitudes >= threshold)[0]
    if len(detected) == 0:
        raise NoSignalError(
            "no correlation lag stands clear of the detection floor")
    if len(detected) > len(corrected) // 2:
        raise NoSignalError(
            f"detection_threshold_db: a floor {config.detection_threshold_db:.6g}"
            f" dB below the peak lets {len(detected)} of {len(corrected)} "
            f"correlation lags clear it, more than half")
    return detected


def oracle_detect_taps(profile, config):
    """sliding._detect_taps through np.sum and oracle_threshold."""
    n = len(profile)
    gain_sum = np.sum(profile)
    for _ in range(2):
        corrected = (profile + gain_sum) * (n / (n + 1.0))
        detected = oracle_threshold(corrected, config)
        gain_sum = np.sum(corrected[detected]) / n
    return detected, corrected


def oracle_first_arrival(lags, period):
    """The lag after the largest circular gap, by np.diff and np.argmax."""
    if len(lags) == 1:
        return lags[0]
    gaps = np.diff(np.concatenate([lags, [lags[0] + period]]))
    return lags[(int(np.argmax(gaps)) + 1) % len(lags)]


def oracle_sound_row(mean_period, profile, chips, config, tx_power_db):
    """One row of sliding.sound by the oracles: the first arrival always
    rotated to lag 0 by a modulo and an argsort, the path loss by
    np.sum. Returns (lags, gains, path loss, delay spread)."""
    n = chips.period_length
    detected, corrected = oracle_detect_taps(profile, config)
    first = oracle_first_arrival(detected, n)
    if first != 0:
        detected, corrected = oracle_detect_taps(
            circular_correlate(chips, np.roll(mean_period, -int(first))),
            config)
        first = oracle_first_arrival(detected, n)
    relative = (detected - first) % n
    order = np.argsort(relative)
    lags = relative[order]
    gains = corrected[detected[order]]
    loss = tx_power_db - 10.0 * math.log10(float(np.sum(np.abs(gains) ** 2)))
    return lags, gains, loss, sliding.rms_delay_spread(lags, gains,
                                                       config.chip_period_s)


def oracle_synthesize_channel(env, tx_position, rx_position, seed,
                              delay_grid_s):
    """synthesize_channel with the delays summed by np.cumsum and snapped
    in a loop over numpy floats."""
    loss_db = ch.path_loss_db(env, tx_position, rx_position)
    rng = np.random.default_rng(seed)
    lo, hi = env.tap_count_range
    tap_count = int(rng.integers(lo, hi + 1))
    if env.delay_spread_scale_s == 0.0:
        tap_count = 1
    delays = np.zeros(tap_count)
    if tap_count > 1:
        raw = np.cumsum(rng.exponential(env.delay_spread_scale_s,
                                        tap_count - 1))
        grid_steps = 0
        for k in range(1, tap_count):
            grid_steps = max(int(round(raw[k - 1] / delay_grid_s)),
                             grid_steps + 1)
            delays[k] = grid_steps * delay_grid_s
    if env.delay_spread_scale_s > 0.0:
        powers = np.exp(-delays / env.delay_spread_scale_s)
    else:
        powers = np.ones(tap_count)
    powers *= 10.0 ** (-loss_db / 10.0) / np.sum(powers)
    phases = rng.uniform(0.0, 2.0 * np.pi, tap_count)
    return np.sqrt(powers) * np.exp(1j * phases), delays, loss_db
