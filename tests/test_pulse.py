import functools
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chansounder import pn, pulse, sliding

from helpers import (expand, modulated, one_row, oracle_folded_period,
                     oracle_modulate, oracle_phase_energies, output_index,
                     write_iq)

CHIP_PERIOD = sliding.SounderConfig().chip_period_s


def recover_one(signal, chips, taps, phase, periods, skip=0):
    """recover_symbols on signal as a one-row stack, from the symbol
    `skip` symbols past the first at phase at or after t = 0: that row's
    symbols."""
    [symbols] = pulse.recover_symbols(
        one_row(signal), chips, taps,
        [output_index(signal, taps, phase, skip)], periods)
    return symbols


def phase_of(signal, chips, taps):
    """estimate_timing_phase on signal as a one-row stack, over the chip
    period from t = 0: its phase, or -1 for no signal."""
    [phase] = pulse.estimate_timing_phase(one_row(signal), chips, taps,
                                          output_index(signal, taps))
    return phase


def reference_rrc(rolloff, span, sps):
    """Closed-form oracle, written from the textbook formula."""
    n = span * sps + 1
    t = (np.arange(n) - (n - 1) / 2) / sps
    h = np.empty(n)
    for i, ti in enumerate(t):
        if ti == 0.0:
            h[i] = 1.0 + rolloff * (4.0 / math.pi - 1.0)
        elif abs(abs(4.0 * rolloff * ti) - 1.0) < 1e-9:
            h[i] = (rolloff / math.sqrt(2.0)) * (
                (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * rolloff))
                + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * rolloff)))
        else:
            h[i] = (math.sin(math.pi * ti * (1.0 - rolloff))
                    + 4.0 * rolloff * ti * math.cos(math.pi * ti * (1.0 + rolloff))) \
                / (math.pi * ti * (1.0 - (4.0 * rolloff * ti) ** 2))
    return h / math.sqrt(np.sum(h**2))


def test_design_length_symmetry_energy():
    taps = pulse.design_rrc(0.35, 10, 4)
    assert len(taps.coefficients) == 41
    npt.assert_allclose(taps.coefficients, taps.coefficients[::-1], atol=1e-12)
    assert abs(np.sum(taps.coefficients**2) - 1.0) < 1e-9


def test_self_convolution_is_nyquist():
    taps = pulse.design_rrc(0.35, 10, 4)
    rc = np.convolve(taps.coefficients, taps.coefficients)
    center = len(rc) // 2
    at_symbols = rc[center::4]
    assert at_symbols[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(at_symbols[1:])) < 1e-3 * at_symbols[0]


def test_closed_form_center_tap():
    taps = pulse._rrc_closed_form(1.0, 8, 2)
    oracle = reference_rrc(1.0, 8, 2)
    center = len(taps) // 2
    assert taps[center] == pytest.approx(oracle[center], abs=1e-12)
    npt.assert_allclose(taps, oracle, atol=1e-12)


def test_corrected_taps_stay_near_closed_form():
    raw = pulse._rrc_closed_form(0.35, 12, 4)
    fixed = pulse.design_rrc(0.35, 12, 4)
    assert np.max(np.abs(raw - fixed.coefficients)) < 0.05


def test_singular_grid_points_are_finite():
    # rolloff 0.25 puts the 1/(4*rolloff) singularity exactly on the grid
    taps = pulse._rrc_closed_form(0.25, 8, 4)
    assert np.all(np.isfinite(taps))
    t = (np.arange(len(taps)) - (len(taps) - 1) / 2) / 4
    assert np.any(np.abs(np.abs(4 * 0.25 * t) - 1.0) < 1e-12)


@pytest.mark.parametrize("args", [
    (0.0, 10, 4), (1.5, 10, 4), (0.35, 3, 4), (0.35, 9, 4), (0.35, 10, 1),
])
def test_design_preconditions(args):
    # SounderConfig rejects what design_rrc cannot take, naming the field
    rolloff, span, sps = args
    field = ("rolloff" if rolloff != 0.35 else "span_symbols" if span != 10
             else "samples_per_symbol")
    with pytest.raises(ValueError, match=f"^{field}: "):
        sliding.SounderConfig(rolloff=rolloff, span_symbols=span,
                              samples_per_symbol=sps)


def test_filter_taps_invariants():
    # design_rrc's taps are span * sps + 1 long, symmetric and of unit
    # energy, the shape that the matched filter and the ramps assume
    for rolloff, span, sps in ((0.35, 6, 2), (0.35, 12, 4), (1.0, 8, 2),
                               (0.25, 8, 4), (1e-3, 4, 256)):
        taps = pulse.design_rrc(rolloff, span, sps)
        h = taps.coefficients
        assert (len(h), taps.samples_per_symbol) == (span * sps + 1, sps)
        assert np.max(np.abs(h - h[::-1])) <= 1e-12
        assert float(np.sum(h ** 2)) == pytest.approx(1.0, abs=1e-9)


def test_shape_single_symbol_is_impulse_response(rrc_taps):
    signal = pulse.shape_symbols([1.0], rrc_taps, CHIP_PERIOD)
    ntaps = len(rrc_taps.coefficients)
    npt.assert_array_equal(signal.samples.real[:ntaps], rrc_taps.coefficients)
    npt.assert_array_equal(signal.samples.real[ntaps:], 0.0)
    npt.assert_array_equal(signal.samples.imag, 0.0)


def test_modulate_length_and_realness(chips10, rrc_taps):
    signal = pulse.modulate(chips10, 1, rrc_taps, CHIP_PERIOD)
    assert len(signal) == 1023 * 4 + 12 * 4
    assert len(signal) >= 4 * 1023
    npt.assert_array_equal(signal.samples.imag, 0.0)
    assert signal.sample_rate == pytest.approx(4 / CHIP_PERIOD)


def test_modulate_middle_period_is_periodic(chips10, rrc_taps):
    signal = modulated(chips10, 3, rrc_taps, CHIP_PERIOD)
    period = 1023 * 4
    first = signal.samples[period:2 * period]
    second = signal.samples[2 * period:3 * period]
    npt.assert_allclose(first, second, atol=1e-9)


@pytest.mark.parametrize("span", [6, 8, 10, 12, 14, 16])
def test_roundtrip_error_below_budget(chips10, span):
    taps = pulse.design_rrc(0.35, span, 4)
    signal = modulated(chips10, 3, taps, CHIP_PERIOD)
    middle = recover_one(signal, chips10, taps, 0, 1, skip=1023)
    assert np.max(np.abs(middle - chips10.chips)) < 1e-6


def test_recover_single_delayed_tap(chips10, rrc_taps):
    # a lone 0.5 gain at 3 chip periods: recovered symbols are the chips
    # scaled by 0.5 and shifted by 3
    signal = modulated(chips10, 4, rrc_taps, CHIP_PERIOD)
    delayed = np.concatenate([np.zeros(12), 0.5 * signal.samples])
    shifted = pulse.BasebandSignal(delayed, signal.sample_rate, signal.origin_time)
    window = recover_one(shifted, chips10, rrc_taps, 0, 1, skip=1023)
    train = np.tile(chips10.chips, 4)
    npt.assert_allclose(window, 0.5 * train[1020:2043], atol=1e-6)


def test_recover_two_tap_superposition(chips10, rrc_taps):
    signal = modulated(chips10, 4, rrc_taps, CHIP_PERIOD)
    delayed = np.concatenate([signal.samples, np.zeros(12)])
    delayed[12:] += 0.5 * signal.samples
    mixed = pulse.BasebandSignal(delayed, signal.sample_rate, signal.origin_time)
    window = recover_one(mixed, chips10, rrc_taps, 0, 1, skip=1023)
    train = np.tile(chips10.chips, 4)
    expected = train[1023:2046] + 0.5 * train[1020:2043]
    npt.assert_allclose(window, expected, atol=1e-6)


def test_recover_zero_signal(chips10, rrc_taps):
    signal = pulse.BasebandSignal(np.zeros(4096), 1e6)
    npt.assert_array_equal(recover_one(signal, chips10, rrc_taps,
                                       0, 1), 0.0)


@functools.lru_cache(maxsize=32)
def _taps_at(sps, span=6):
    return pulse.design_rrc(0.35, span, sps)


@given(degree=st.integers(2, 6), sps=st.integers(2, 8),
       periods=st.integers(1, 5), phase=st.integers(0, 7),
       skip=st.integers(0, 3), origin=st.integers(0, 100),
       tail=st.integers(-48, 49), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_folded_period_matches_filter_then_average_oracle(
        degree, sps, periods, phase, skip, origin, tail, seed):
    # averaging the raw periods and filtering one equals filtering every
    # period and averaging (both are linear), to rounding; the capture
    # starts inside the first outputs' filter span when origin is small,
    # and ends inside the last ones' when tail is negative
    taps = _taps_at(sps)
    span = len(taps.coefficients)
    chips = pn.generate_glfsr(degree)
    n = chips.period_length
    phase %= sps
    tail = max(tail, -(span - 1))
    last = origin + phase + (skip + periods * n - 1) * sps
    size = max(span, last + 1 + tail)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=size) + 1j * rng.normal(size=size)
    half = (span - 1) // 2
    signal = pulse.BasebandSignal(samples, 1.0, origin_time=half - origin)
    got = recover_one(signal, chips, taps, phase, periods, skip=skip)
    expected = oracle_folded_period(signal, taps, phase, n, periods, skip)
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@given(sps=st.integers(2, 8), span=st.sampled_from([4, 6, 12]),
       size=st.integers(1, 6000), first=st.floats(0.0, 1.0),
       last=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 3.0))
@example(sps=8, span=12, size=20000, first=0.0, last=1.0, seed=1,
         log_scale=0.0)  # more outputs than one product may take
@settings(max_examples=200)
def test_filter_bank_rails_match_full_convolution(sps, span, size, first,
                                                  last, seed, log_scale):
    # the timing search's polyphase filter-bank products equal np.convolve
    # to rounding on any output window, also where its input blocks run
    # past either end of the signal and need zero padding
    taps = _taps_at(sps, span)
    h = taps.coefficients
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=size) + 1j * rng.normal(size=size)) \
        * 10.0 ** log_scale
    full = np.convolve(x, h)
    start = int(first * (len(full) - 1))
    stop = start + 1 + int(last * (len(full) - start - 1))
    bound = 1e-13 * np.sum(np.abs(h)) * np.max(np.abs(x))
    # one rail at a time: the real rail, then the imaginary in its buffer
    rails = pulse._bank_rails(x[None], taps, start, stop)
    for [rail], expected in zip(rails, (full[start:stop].real,
                                        full[start:stop].imag), strict=True):
        assert rail.shape == (stop - start,)
        assert np.max(np.abs(rail - expected)) <= bound
    assert taps.bank is taps.bank  # built once per FilterTaps


@given(degree=st.integers(2, 11), sps=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 3.0))
@settings(max_examples=150)
def test_closed_form_phase_energies_match_fft_oracle(degree, sps, seed,
                                                    log_scale):
    # the timing search ranks phases by (N + 1) * sum|y|^2 - |sum y|^2,
    # which must be N^2 times the energy of each phase's FFT correlation
    chips = pn.generate_glfsr(degree)
    n = chips.period_length
    rng = np.random.default_rng(seed)
    windows = (rng.normal(size=(n, sps)) + 1j * rng.normal(size=(n, sps))) \
        * 10.0 ** log_scale
    # one term per rail, the real rail's first; each rail is a copy, as
    # _phase_scores squares it in place
    got = (pulse._phase_scores(windows.real.copy())
           + pulse._phase_scores(windows.imag.copy())) / n**2
    expected = oracle_phase_energies(chips, windows)
    npt.assert_allclose(got, expected, rtol=1e-12, atol=0)
    runner_up, best = np.sort(expected)[-2:]
    if best - runner_up > 1e-9 * best:
        assert np.argmax(got) == np.argmax(expected)


@pytest.mark.parametrize("sps", [2, 3, 8])
def test_phase_scores_of_more_symbols_than_one_product_may_take(sps):
    # past MAX_PRODUCT_MACS // sps symbols the power and plain sums are
    # added from several products; they still equal one sum over all
    n = pulse.MAX_PRODUCT_MACS // sps * 2 + 5
    rails = np.random.default_rng(sps).normal(size=(2, n, sps))
    power = np.einsum("rkp,rkp->rp", rails, rails)
    total = rails.sum(axis=1)
    expected = ((n + 1) * power - total * total).sum(axis=0)
    got = pulse._phase_scores(rails[0]) + pulse._phase_scores(rails[1])
    npt.assert_allclose(got, expected, rtol=1e-9)


@given(degree=st.integers(2, 6), sps=st.integers(2, 8),
       span=st.sampled_from([4, 6, 12]), repetitions=st.integers(1, 8))
@settings(max_examples=80)
def test_modulate_repeats_exactly_between_its_ramps(degree, sps, span,
                                                    repetitions):
    # samples[L - 1:len - (L - 1)] repeat every N * sps samples bit for
    # bit, also when the ramp is longer than one period, and the waveform
    # is the shaped chip train of every period to rounding
    taps = _taps_at(sps, span)
    chips = pn.generate_glfsr(degree)
    period = chips.period_length * sps
    ramp = len(taps.coefficients) - 1
    signal = modulated(chips, repetitions, taps, CHIP_PERIOD)
    assert len(signal) == repetitions * period + ramp
    steady = signal.samples[ramp:len(signal) - ramp]
    assert steady[period:].tobytes() == \
        steady[:max(len(steady) - period, 0)].tobytes()
    full = pulse.shape_symbols(np.tile(chips.chips, repetitions), taps,
                               CHIP_PERIOD)
    assert signal.origin_time == full.origin_time
    npt.assert_allclose(signal.samples, full.samples, rtol=0, atol=1e-14)


@pytest.mark.parametrize("repetitions", range(3, 9))
@pytest.mark.parametrize("degree,sps,span", [(2, 2, 12), (5, 3, 6)])
def test_modulate_form_slices_the_burst_shaped_whole(degree, sps, span,
                                                    repetitions):
    # the form's head and tail are slices of the chip train shaped over
    # all its periods, bit for bit, whether the ramp is longer than a
    # period (degree 2: P = 6, ramp = 24) or shorter (degree 5: P = 93,
    # ramp = 18), and whether the burst is held whole or not
    taps = _taps_at(sps, span)
    chips = pn.generate_glfsr(degree)
    form = pulse.modulate(chips, repetitions, taps, CHIP_PERIOD)
    full = pulse.shape_symbols(np.tile(chips.chips, repetitions), taps,
                               CHIP_PERIOD).samples
    tail = len(form.samples) - form.head
    assert len(full) == len(form)
    assert np.array_equal(form.samples[:form.head], full[:form.head])
    assert np.array_equal(form.samples[form.head:], full[len(full) - tail:])


@pytest.mark.parametrize("repetitions", [1, 2, 3, 4, 5, 12])
@pytest.mark.parametrize("degree,sps,span", [(10, 4, 12), (2, 2, 12),
                                             (3, 8, 4), (5, 3, 6)])
def test_modulate_period_form_expands_to_the_tiled_burst(degree, sps, span,
                                                         repetitions):
    # expanded, the period form is the whole burst that modulate tiled
    # before it held the form, bit for bit: the ramp-in and two periods,
    # then one period and the ramp-out, or the whole burst when it is too
    # short to repeat anything between them (at degree 2, whose 6-sample
    # period is shorter than the 24-sample ramp, every count below 12)
    taps = _taps_at(sps, span)
    chips = pn.generate_glfsr(degree)
    period, ramp = pulse.burst_period_and_ramp(chips, taps)
    form = pulse.modulate(chips, repetitions, taps, CHIP_PERIOD)
    tiled = oracle_modulate(chips, repetitions, taps, CHIP_PERIOD)
    assert len(form) == len(tiled) == repetitions * period + ramp
    assert expand(form).tobytes() == tiled.samples.tobytes()
    assert (form.sample_rate, form.origin_time) == \
        (tiled.sample_rate, tiled.origin_time)
    if len(form) > 3 * period + 2 * ramp:
        assert (form.head, form.period) == (ramp + 2 * period, period)
        assert len(form.samples) == 3 * period + 2 * ramp
    else:
        assert (form.head, form.period) == (len(form), 0)
        assert len(form.samples) == len(form)


@pytest.mark.parametrize("planted", [0, 1, 2, 3])
def test_timing_phase_planted(chips10, rrc_taps, planted):
    signal = modulated(chips10, 3, rrc_taps, CHIP_PERIOD)
    padded = pulse.BasebandSignal(
        np.concatenate([np.zeros(planted), signal.samples]),
        signal.sample_rate, signal.origin_time)
    assert phase_of(padded, chips10, rrc_taps) == planted


def test_timing_phase_zero_signal(chips10, rrc_taps):
    silent = pulse.BasebandSignal(np.zeros(3 * 1023 * 4 + 64), 4 / CHIP_PERIOD)
    assert phase_of(silent, chips10, rrc_taps) == -1


def test_timing_phase_silent_search_window(chips10, rrc_taps):
    # power after the search window does not make a phase: the window's
    # matched-filter outputs are all zero, so no phase exists
    n, sps = chips10.period_length, rrc_taps.samples_per_symbol
    # with the origin at sample 0, the window's last output reads up to
    # sample half + n * sps - 1
    end = (len(rrc_taps.coefficients) - 1) // 2 + n * sps
    samples = np.zeros(3 * n * sps + 64)
    samples[end:] = 1.0
    segment = pulse.BasebandSignal(samples, sps / CHIP_PERIOD)
    assert phase_of(segment, chips10, rrc_taps) == -1
    # one nonzero sample inside the window is enough to time
    samples[end - 1] = 1.0
    segment = pulse.BasebandSignal(samples, sps / CHIP_PERIOD)
    assert phase_of(segment, chips10, rrc_taps) in range(sps)


def test_timing_phase_scale_invariant(chips10, rrc_taps):
    signal = modulated(chips10, 3, rrc_taps, CHIP_PERIOD)
    shifted = pulse.BasebandSignal(
        np.concatenate([np.zeros(2), signal.samples]),
        signal.sample_rate, signal.origin_time)
    scaled = pulse.BasebandSignal(shifted.samples * (2.0 - 3.0j),
                                  shifted.sample_rate, shifted.origin_time)
    assert phase_of(scaled, chips10, rrc_taps) \
        == phase_of(shifted, chips10, rrc_taps) == 2


def test_timing_phase_noisy_monte_carlo(chips10, rrc_taps):
    # 20 dB symbol SNR: the planted phase must win in at least 99 of 100 runs
    base = modulated(chips10, 2, rrc_taps, CHIP_PERIOD)
    planted = 3
    shifted = np.concatenate([np.zeros(planted), base.samples])
    signal_power = np.mean(np.abs(base.samples) ** 2)
    sigma = math.sqrt(signal_power / 10**2 / 2.0)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = shifted + rng.normal(scale=sigma, size=len(shifted)) \
            + 1j * rng.normal(scale=sigma, size=len(shifted))
        capture = pulse.BasebandSignal(noisy, base.sample_rate, base.origin_time)
        hits += phase_of(capture, chips10, rrc_taps) == planted
    assert hits >= 99


def test_iq_file_roundtrip(tmp_path, chips10, rrc_taps):
    signal = modulated(chips10, 1, rrc_taps, CHIP_PERIOD)
    target = tmp_path / "capture.iq"
    write_iq(signal, target)
    assert target.exists() and (tmp_path / "capture.iq.json").exists()
    assert target.stat().st_size == 8 * len(signal)
    loaded = pulse.read_iq(target)
    assert loaded.sample_rate == signal.sample_rate
    assert loaded.origin_time == signal.origin_time
    # float32 storage quantizes
    npt.assert_allclose(loaded.samples, signal.samples, atol=1e-6)


def _iq_with_sidecar(tmp_path, floats, **sidecar_overrides):
    """A raw float32 file plus a sidecar that may contradict it."""
    target = tmp_path / "capture.iq"
    np.arange(floats, dtype="<f4").tofile(target)
    sidecar = {"format": "cf32_le", "sample_rate_hz": 1e6,
               "origin_time_s": 0.0, "sample_count": floats // 2}
    sidecar.update(sidecar_overrides)
    (tmp_path / "capture.iq.json").write_text(json.dumps(sidecar))
    return target


def test_read_iq_rejects_other_format(tmp_path):
    target = _iq_with_sidecar(tmp_path, 20, format="ci16_le")
    with pytest.raises(ValueError, match="format"):
        pulse.read_iq(target)


def test_read_iq_rejects_sample_count_mismatch(tmp_path):
    target = _iq_with_sidecar(tmp_path, 20, sample_count=99)
    with pytest.raises(ValueError, match="sample_count"):
        pulse.read_iq(target)


def test_read_iq_rejects_odd_float_count(tmp_path):
    target = _iq_with_sidecar(tmp_path, 21, sample_count=10)
    with pytest.raises(ValueError, match="odd"):
        pulse.read_iq(target)


def test_read_iq_checks_each_sample_once(tmp_path, monkeypatch):
    # the scan of the raw floats proves the samples finite, and is the
    # only pass that checks them
    target = _iq_with_sidecar(tmp_path, 20)
    scanned = []
    isfinite = np.isfinite

    def counted(values, *args, **kwargs):
        scanned.append(np.size(values))
        return isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    loaded = pulse.read_iq(target)
    assert scanned == [20]  # ten samples, each two floats
    assert loaded.samples.dtype == np.complex128
    npt.assert_array_equal(loaded.samples,
                           np.arange(0, 20, 2) + 1j * np.arange(1, 20, 2))


@pytest.mark.parametrize("span,sps", [(12, 4), (4, 2), (6, 3), (4, 8)])
def test_matched_filter_equals_full_convolution_bit_for_bit(span, sps):
    # the recovery's decimating filter must reproduce np.convolve exactly,
    # not to a tolerance: campaign output bytes depend on it. With one
    # period and a window inside the capture, the fold is the window
    # itself, so the N outputs are the full convolution's, decimated
    taps = _taps_at(sps, span)
    h = taps.coefficients
    length = len(h)
    rng = np.random.default_rng(span * 10 + sps)
    for degree in (2, 5, 10):
        chips = pn.generate_glfsr(degree)
        n = chips.period_length
        size = n * sps + 3 * length + 10
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        full = np.convolve(x, h)
        for phase in range(sps):
            for skip in (0, 1, 3):
                # the window x[first - (L - 1):first + N * sps] lies
                # inside the capture
                lo = length - 1 - phase - skip * sps
                hi = size - n * sps - phase - skip * sps
                for origin in (lo, hi, int(rng.integers(lo, hi + 1))):
                    signal = pulse.BasebandSignal(
                        x, 1.0, origin_time=(length - 1) // 2 - origin)
                    got = recover_one(signal, chips, taps, phase, 1,
                                      skip=skip)
                    first = origin + phase + skip * sps
                    assert np.array_equal(
                        got, full[first:first + n * sps:sps]), \
                        (degree, phase, skip, origin)
