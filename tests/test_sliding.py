import gc
import json
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import channel as ch
from chansounder import pn, pulse, sliding
from chansounder.exceptions import NoSignalError

from helpers import (add_noise, expand, measure_one, measured_correlation_gain,
                     modulated, one_row, oracle_detect_taps,
                     oracle_measure_sliding, oracle_sound_row, planted_capture,
                     random_planted_channel, tap_gains, tap_lags)


def test_planted_three_tap_channel(chips10, rrc_taps, sounder_config):
    period = sounder_config.chip_period_s
    planted = ch.MultipathChannel(
        gains=[1.0, 0.5 * np.exp(1j * np.pi / 4), 0.1],
        delays=[0.0, 2 * period, 5 * period])
    capture = planted_capture(chips10, rrc_taps, planted, sounder_config)
    profile = measure_one(capture, chips10, rrc_taps, sounder_config)
    npt.assert_array_equal(tap_lags(profile), [0, 2, 5])
    npt.assert_allclose(tap_gains(profile), planted.gains, rtol=1e-3)


def test_adjacent_near_equal_taps(chips10, rrc_taps):
    # regression: adjacent taps of similar strength once fooled the
    # peak-magnitude timing metric into a half-sample phase, smearing
    # spurious lags across the profile
    config = sliding.SounderConfig(averaging_periods=2,
                                   detection_threshold_db=50.0)
    period = config.chip_period_s
    planted = ch.MultipathChannel(
        gains=[0.071462 + 0.040996j, -0.147009 - 0.113625j,
               -0.071428 - 0.997446j, 0.223418 - 0.627187j],
        delays=[0.0, 4 * period, 12 * period, 13 * period])
    capture = planted_capture(chips10, rrc_taps, planted, config)
    profile = measure_one(capture, chips10, rrc_taps, config)
    npt.assert_array_equal(tap_lags(profile), [0, 4, 12, 13])
    npt.assert_allclose(tap_gains(profile), planted.gains, rtol=1e-6)


def _arriving_late(capture, samples):
    """capture with its waveform arriving a whole number of samples later."""
    return pulse.BasebandSignal(
        np.concatenate([np.zeros(samples), capture.samples]),
        capture.sample_rate, capture.origin_time)


@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 15),
       shift=st.integers(1, 15))
@settings(max_examples=60)
def test_planted_channel_recovery_property(chips10, rrc_taps, seed, offset,
                                           shift):
    # a random 1-6 tap channel on the chip grid, arriving a random whole
    # number of samples late: the search finds the true sample phase,
    # lags come back exact and gains within 1 dB / 5 degrees, and a
    # further whole-sample shift of the capture changes no profile bit
    config = sliding.SounderConfig(averaging_periods=2,
                                   detection_threshold_db=50.0)
    planted, lags = random_planted_channel(np.random.default_rng(seed),
                                           config.chip_period_s, max_taps=6,
                                           min_taps=1)
    capture = _arriving_late(planted_capture(chips10, rrc_taps, planted, config),
                             offset)
    sps = rrc_taps.samples_per_symbol
    assert pulse.estimate_timing_phase(one_row(capture), chips10, rrc_taps,
                                       skip_symbols=chips10.period_length) \
        == [offset % sps]
    profile = measure_one(capture, chips10, rrc_taps, config)
    npt.assert_array_equal(tap_lags(profile), lags)
    ratio = tap_gains(profile) / planted.gains
    assert np.max(np.abs(20 * np.log10(np.abs(ratio)))) <= 1.0
    assert np.max(np.abs(np.degrees(np.angle(ratio)))) <= 5.0

    shifted = measure_one(_arriving_late(capture, shift), chips10,
                          rrc_taps, config)
    assert tap_lags(shifted).tobytes() == tap_lags(profile).tobytes()
    assert tap_gains(shifted).tobytes() == tap_gains(profile).tobytes()
    assert shifted["path_loss_db"] == profile["path_loss_db"]
    assert shifted["rms_delay_spread_s"] == profile["rms_delay_spread_s"]


def test_identity_channel_measurement(chips10, rrc_taps, sounder_config):
    flat = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    capture = planted_capture(chips10, rrc_taps, flat, sounder_config)
    profile = measure_one(capture, chips10, rrc_taps, sounder_config)
    npt.assert_array_equal(tap_lags(profile), [0])
    assert abs(profile["path_loss_db"]) < 0.01
    assert profile["rms_delay_spread_s"] == 0.0


def test_wideband_path_loss_examples(chips10, sounder_config):
    # a row's path loss is its transmit power minus its taps' total power
    def loss(gains, lags, tx_power_db=0.0):
        mean = sum(g * np.roll(chips10.chips, lag) for g, lag in zip(gains, lags))
        [profile] = sliding.sound(mean[None], chips10, sounder_config,
                                  [tx_power_db])
        return profile["path_loss_db"]

    assert loss([0.1], [0]) == pytest.approx(20.0)
    # two taps combine their powers, not their maxima
    two = loss([math.sqrt(0.01), math.sqrt(0.03)], [0, 3])
    assert two == pytest.approx(-10 * math.log10(0.04))
    assert two != pytest.approx(-10 * math.log10(0.03))
    assert loss([0.1], [5], 7.0) == pytest.approx(27.0)
    # the smallest amplitude that the power range lets a row hold
    assert loss([1e-100], [0]) == pytest.approx(2000.0)


def test_written_out_std_matches_np_std_bit_for_bit():
    rng = np.random.default_rng(31)
    for length in range(1, 2001):
        magnitudes = np.abs(rng.normal(size=length)
                            + 1j * rng.normal(size=length))
        for values in (magnitudes, magnitudes * 10.0 ** rng.uniform(
                -30.0, 30.0, size=length), np.full(length, 0.1)):
            assert sliding._std(values) == float(np.std(values)), length


PROFILE_KINDS = ("noise-only", "all-zero", "first-at-lag-0", "rotated",
                 "many-taps")


def planted_period(kind, chips, rng):
    """One averaged chip period of a kind of row: noise alone, zeros, a
    few taps with the first arrival at lag 0 or anywhere on the circle,
    or a quarter to half a period of taps, plus noise."""
    n = chips.period_length
    noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) \
        * 10.0 ** rng.uniform(-6.0, 0.0)
    if kind == "all-zero":
        return np.zeros(n, dtype=np.complex128)
    if kind == "noise-only":
        return noise
    if kind == "many-taps":
        lags = rng.choice(n, size=int(rng.integers(n // 4, n // 2 + 2)),
                          replace=False)
    elif kind == "rotated":
        lags = rng.choice(n, size=int(rng.integers(1, 7)), replace=False)
    else:
        lags = np.concatenate([[0], rng.choice(np.arange(1, min(n, 40)),
                                               size=int(rng.integers(0, 4)),
                                               replace=False)])
    response = np.zeros(n, dtype=np.complex128)
    response[lags] = (rng.normal(size=len(lags))
                      + 1j * rng.normal(size=len(lags)))
    # the chips circularly convolved with the taps: each tap a delayed copy
    return np.fft.ifft(np.fft.fft(chips.chips) * np.fft.fft(response)) \
        + 1e-3 * noise


@given(kind=st.sampled_from(PROFILE_KINDS), degree=st.sampled_from([4, 7, 10]),
       threshold_db=st.sampled_from([10.0, 30.0, 60.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_row_detection_matches_the_numpy_wrapper_oracle(kind, degree,
                                                        threshold_db, seed):
    # the same operations in the same order as through np.sum, np.std,
    # np.nonzero, np.diff and an argsort of every lag set: the same bits,
    # or the same NoSignalError
    chips = pn.generate_glfsr(degree)
    config = sliding.SounderConfig(pn_degree=degree,
                                   detection_threshold_db=threshold_db)
    rng = np.random.default_rng(seed)
    mean = planted_period(kind, chips, rng)
    profile = pn.circular_correlate(chips, mean[None])[0]
    tx_power_db = float(rng.uniform(-20.0, 20.0))

    def outcome(detect, *args):
        try:
            return detect(*args)
        except NoSignalError as exc:
            return str(exc)

    got = outcome(sliding._detect_taps, profile, config)
    want = outcome(oracle_detect_taps, profile, config)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    [row] = sliding.sound(mean[None], chips, config, [tx_power_db])
    want = outcome(oracle_sound_row, mean, profile, chips, config, tx_power_db)
    if isinstance(want, str):
        assert isinstance(row, NoSignalError) and str(row) == want
        return
    lags, gains, loss, spread = want
    assert tap_lags(row).tobytes() == lags.astype(np.int64).tobytes()
    assert tap_gains(row).tobytes() == gains.tobytes()
    assert (row["path_loss_db"], row["rms_delay_spread_s"]) == (loss, spread)
    # the row's invariants: lags from the first arrival at 0, strictly
    # increasing below N; at least one tap; a spread inside the tap span;
    # a finite path loss
    got_lags = tap_lags(row)
    assert len(got_lags) >= 1 and got_lags[0] == 0
    assert (got_lags[1:] > got_lags[:-1]).all() and got_lags[-1] < len(mean)
    span = (got_lags[-1] - got_lags[0]) * row["chip_period_s"]
    assert 0.0 <= row["rms_delay_spread_s"] <= span + 1e-15
    assert math.isfinite(row["path_loss_db"])


def test_rms_delay_spread_single_tap():
    assert sliding.rms_delay_spread([0], [1.0], 60e-9) == 0.0
    assert sliding.rms_delay_spread([5], [0.3], 60e-9) == 0.0


def test_rms_delay_spread_two_equal_taps():
    # equal powers 120 ns apart: spread is half the separation
    got = sliding.rms_delay_spread([0, 2], [0.5, 0.5], 60e-9)
    assert got == pytest.approx(60e-9, rel=1e-12)


def test_rms_delay_spread_exponential_closed_form():
    # p_k = r^k at lags 0..K-1: moments via geometric series sums
    r, count, period = 0.6, 8, 60e-9
    lags = np.arange(count)
    gains = np.sqrt(r ** lags)
    total = (1 - r**count) / (1 - r)
    first = sum(k * r**k for k in range(count))
    second = sum(k**2 * r**k for k in range(count))
    mean = first / total
    expected = period * math.sqrt(second / total - mean**2)
    got = sliding.rms_delay_spread(lags, gains, period)
    assert got == pytest.approx(expected, rel=0.01)


def test_scale_equivariance(chips10, rrc_taps, sounder_config):
    period = sounder_config.chip_period_s
    planted = ch.MultipathChannel(gains=[1.0, 0.4j], delays=[0.0, 3 * period])
    capture = planted_capture(chips10, rrc_taps, planted, sounder_config)
    base = measure_one(capture, chips10, rrc_taps, sounder_config)
    g = 0.5 - 1.25j
    scaled_capture = pulse.BasebandSignal(capture.samples * g,
                                          capture.sample_rate,
                                          capture.origin_time)
    scaled = measure_one(scaled_capture, chips10, rrc_taps,
                         sounder_config)
    npt.assert_array_equal(tap_lags(scaled), tap_lags(base))
    npt.assert_allclose(tap_gains(scaled), tap_gains(base) * g, rtol=1e-9)
    assert scaled["path_loss_db"] == pytest.approx(
        base["path_loss_db"] - 20 * math.log10(abs(g)), abs=1e-9)


def test_sound_deterministic(chips10, rrc_taps, sounder_config):
    period = sounder_config.chip_period_s
    planted = ch.MultipathChannel(gains=[1.0, 0.2], delays=[0.0, 4 * period])
    capture = planted_capture(chips10, rrc_taps, planted, sounder_config)
    mean_period = pulse.recover_symbols(one_row(capture), chips10, rrc_taps,
                                        [0], sounder_config.averaging_periods,
                                        skip_symbols=1023)
    [one] = sliding.sound(mean_period, chips10, sounder_config, [0.0])
    [two] = sliding.sound(mean_period, chips10, sounder_config, [0.0])
    npt.assert_array_equal(tap_gains(one), tap_gains(two))
    npt.assert_array_equal(tap_lags(one), tap_lags(two))
    assert one["path_loss_db"] == two["path_loss_db"]
    assert one["rms_delay_spread_s"] == two["rms_delay_spread_s"]


def test_sound_capture_too_short(chips10, rrc_taps, sounder_config):
    # the settle period plus nine, where ten are averaged
    capture = modulated(chips10, 10, rrc_taps, sounder_config.chip_period_s)
    with pytest.raises(ValueError, match=r"symbols is shorter than 10 "
                       r"periods \(10230 symbols\)"):
        measure_one(capture, chips10, rrc_taps, sounder_config)


def test_sound_pure_noise_is_no_signal(chips10, sounder_config, rng):
    symbols = rng.normal(size=1023 * 10) + 1j * rng.normal(size=1023 * 10)
    [result] = sliding.sound(symbols.reshape(1, 10, 1023).mean(axis=1),
                             chips10, sounder_config, [0.0])
    assert isinstance(result, NoSignalError)


def test_sound_all_zero_is_no_signal(chips10, sounder_config):
    [result] = sliding.sound(np.zeros((1, 1023)), chips10, sounder_config,
                             [0.0])
    assert isinstance(result, NoSignalError)
    assert str(result) == "correlation profile is identically zero"


def test_dynamic_range_60_db(chips10, rrc_taps):
    config = sliding.SounderConfig(detection_threshold_db=70.0)
    period = config.chip_period_s
    weak = 1e-3  # 60 dB below the strong tap
    planted = ch.MultipathChannel(gains=[1.0, weak], delays=[0.0, 7 * period])
    capture = planted_capture(chips10, rrc_taps, planted, config)
    profile = measure_one(capture, chips10, rrc_taps, config)
    npt.assert_array_equal(tap_lags(profile), [0, 7])
    error_db = abs(20 * math.log10(abs(tap_gains(profile)[1]) / weak))
    assert error_db <= 1.0


def test_environment_roundtrip_path_loss(chips10, rrc_taps, sounder_config):
    env = ch.EnvironmentModel(reference_loss_db=30.0, path_loss_exponent=2.0,
                              delay_spread_scale_s=1.2e-7,
                              tap_count_range=(2, 5))
    planted, truth = ch.synthesize_channel(
        env, (0, 0, 0), (6.0, 2.0, 1.0), seed=33,
        delay_grid_s=sounder_config.chip_period_s)
    config = sliding.SounderConfig(detection_threshold_db=60.0)
    capture = planted_capture(chips10, rrc_taps, planted, config)
    profile = measure_one(capture, chips10, rrc_taps, config)
    assert profile["path_loss_db"] == pytest.approx(truth, abs=0.2)


def test_processing_gain_statistic(chips10):
    # correlation should lift the symbol SNR by 10*log10(N*M)
    m = 4
    expected = 10 * math.log10(chips10.period_length * m)
    gains = [measured_correlation_gain(chips10, m, seed) for seed in range(20)]
    assert abs(np.mean(gains) - expected) < 1.0


def test_sound_detection_survives_noise(chips10, rrc_taps):
    # the full receive path keeps working at moderate symbol SNR
    config = sliding.SounderConfig(detection_threshold_db=20.0)
    period = config.chip_period_s
    planted = ch.MultipathChannel(gains=[1.0, 0.5], delays=[0.0, 4 * period])
    capture = planted_capture(chips10, rrc_taps, planted, config)
    noisy = add_noise(capture, -10.0, seed=3)
    profile = measure_one(noisy, chips10, rrc_taps, config)
    npt.assert_array_equal(tap_lags(profile), [0, 4])
    npt.assert_allclose(np.abs(tap_gains(profile)), [1.0, 0.5], rtol=0.05)


def test_profile_json_roundtrip(chips10, rrc_taps, sounder_config):
    # a row is its delay-profile document: JSON-native ints and floats in
    # the records.jsonl key order, which a JSON round trip gives back
    period = sounder_config.chip_period_s
    planted = ch.MultipathChannel(gains=[1.0, 0.3 - 0.1j],
                                  delays=[0.0, 2 * period])
    capture = planted_capture(chips10, rrc_taps, planted, sounder_config)
    profile = measure_one(capture, chips10, rrc_taps, sounder_config)
    assert list(profile) == ["chip_period_s", "taps", "path_loss_db",
                             "rms_delay_spread_s"]
    assert json.loads(json.dumps(profile)) == profile
    assert profile["chip_period_s"] == period
    assert [list(tap) for tap in profile["taps"]] \
        == [["lag", "gain_re", "gain_im"]] * 2
    assert [type(tap["lag"]) for tap in profile["taps"]] == [int, int]
    assert {type(tap[part]) for tap in profile["taps"]
            for part in ("gain_re", "gain_im")} == {float}
    assert type(profile["path_loss_db"]) is float
    assert type(profile["rms_delay_spread_s"]) is float
    npt.assert_array_equal(tap_lags(profile), [0, 2])
    npt.assert_allclose(tap_gains(profile), planted.gains, rtol=1e-3)


def test_stacked_chain_matches_the_per_segment_oracle_row_for_row(chips10,
                                                                 rrc_taps):
    # four slots of one capture, their guards loud: bursts through planted
    # channels arriving at four sample phases, one silent slot, and
    # segments that end before the recovery's last windows do, so every
    # row's windows cross its end. Each row must give the bits of
    # measuring that row alone, from a copy with nothing past its ends,
    # and the oracle's lags and outcome with its gains to rounding; only
    # the silent row is no_signal
    config = sliding.SounderConfig(averaging_periods=2,
                                   detection_threshold_db=50.0)
    period = config.chip_period_s
    burst = pulse.modulate(chips10, config.averaging_periods + 2, rrc_taps,
                           period)
    channels = [ch.MultipathChannel(gains=[1.0, 0.5j], delays=[0.0, 2 * period]),
                None,
                ch.MultipathChannel(gains=[0.3, -0.2, 0.1j],
                                    delays=[0.0, period, 9 * period]),
                ch.MultipathChannel(gains=[2.0], delays=[0.0])]
    arrivals = [0, 0, 3, 41]  # samples late: phases 0, -, 3 and 1
    powers = [0.0, 3.0, -6.0, 10.0]
    guard, segment = 40, 12300
    slot = segment + 2 * guard
    rng = np.random.default_rng(8)
    capture = 1e3 * (rng.normal(size=4 * slot) + 1j * rng.normal(size=4 * slot))
    for i, (channel, late) in enumerate(zip(channels, arrivals)):
        row = np.zeros(segment, dtype=np.complex128)
        if channel is not None:
            waveform = expand(ch.apply_channel(burst, channel))
            row[late:] = waveform[:segment - late]
        capture[i * slot + guard:(i + 1) * slot - guard] = row
    stack = pulse.BasebandSignal(capture.reshape(4, slot)[:, guard:slot - guard],
                                 burst.sample_rate, burst.origin_time)
    profiles = sliding.measure_sliding(stack, chips10, rrc_taps, config, powers)
    assert pulse.estimate_timing_phase(stack, chips10, rrc_taps, 1023).tolist() \
        == [0, -1, 3, 1]
    for row, power, got in zip(stack.samples, powers, profiles, strict=True):
        alone = pulse.BasebandSignal(row.copy(), stack.sample_rate,
                                     stack.origin_time)
        [single] = sliding.measure_sliding(one_row(alone), chips10, rrc_taps,
                                           config, [power])
        try:
            expected = oracle_measure_sliding(alone, chips10, rrc_taps, config,
                                              power)
        except NoSignalError:
            expected = None
        if isinstance(got, NoSignalError):
            assert isinstance(single, NoSignalError) and expected is None
            continue
        assert tap_lags(got).tobytes() == tap_lags(single).tobytes()
        assert tap_gains(got).tobytes() == tap_gains(single).tobytes()
        assert got["path_loss_db"] == single["path_loss_db"]
        assert got["rms_delay_spread_s"] == single["rms_delay_spread_s"]
        npt.assert_array_equal(tap_lags(got), tap_lags(expected))
        npt.assert_allclose(tap_gains(got), tap_gains(expected), rtol=1e-12,
                            atol=0)
        assert got["path_loss_db"] == pytest.approx(
            expected["path_loss_db"], rel=0, abs=1e-10)
    assert [isinstance(p, NoSignalError) for p in profiles] \
        == [False, True, False, False]
    assert str(profiles[1]) == ("capture is silent in the timing search "
                                "window; no timing phase exists")
    npt.assert_array_equal(tap_lags(profiles[2]), [0, 1, 9])


def test_a_no_signal_row_keeps_no_capture_alive(chips10, rrc_taps,
                                                sounder_config):
    # a row's NoSignalError comes back without a traceback: the frames in
    # one kept each location's capture alive until the cycle collector
    # ran, and sliding-nearfar's peak memory rose from 61 to 163 MB
    rng = np.random.default_rng(3)
    size = 12 * 1023 * rrc_taps.samples_per_symbol
    samples = rng.normal(size=size) + 1j * rng.normal(size=size)
    capture = pulse.BasebandSignal(samples, 1 / 15e-9)
    alive = weakref.ref(capture.samples)
    gc.disable()
    try:
        [result] = sliding.measure_sliding(one_row(capture), chips10, rrc_taps,
                                           sounder_config, [0.0])
        del capture, samples
        assert isinstance(result, NoSignalError)
        assert result.__traceback__ is None
        assert alive() is None
    finally:
        gc.enable()
