import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import channel as ch
from chansounder import pulse
from chansounder.pulse import BasebandSignal

from helpers import (add_noise, direct_sum, expand, oracle_modulate,
                     oracle_synthesize_channel, period_form, whole)

GRID_S = 60e-9  # the delay grid of the default chip period


def make_signal(samples, rate=1e6):
    return BasebandSignal(np.asarray(samples, dtype=np.complex128), rate)


def make_form(samples, rate=1e6):
    """samples as a whole waveform, the period form apply_channel reads."""
    return whole(make_signal(samples, rate))


def test_identity_channel():
    signal = make_signal([1.0, 2.0, 3.0 - 1.0j])
    flat = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    out = expand(ch.apply_channel(whole(signal), flat))
    npt.assert_array_equal(out, signal.samples)


def test_impulse_response_by_definition():
    impulse = make_signal([1.0])
    two_tap = ch.MultipathChannel(gains=[1.0, 0.5], delays=[0.0, 2e-6])
    out = expand(ch.apply_channel(whole(impulse), two_tap))
    npt.assert_array_equal(out, [1.0, 0.0, 0.5])


def test_matches_dense_convolution_oracle(rng):
    gains = np.array([1.0, 0.4 - 0.2j, -0.1j])
    delays = np.array([0.0, 3e-6, 7e-6])
    chan = ch.MultipathChannel(gains=gains, delays=delays)
    x = rng.normal(size=500) + 1j * rng.normal(size=500)
    signal = make_form(x)
    impulse = np.zeros(8, dtype=np.complex128)
    impulse[[0, 3, 7]] = gains
    expected = np.convolve(x, impulse)
    out = expand(ch.apply_channel(signal, chan))
    npt.assert_allclose(out, expected, atol=1e-12)


@given(period=st.integers(1, 40), ramp=st.integers(0, 12),
       repetitions=st.integers(1, 5), tap_count=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_periodic_apply_channel_matches_the_direct_sum(
        period, ramp, repetitions, tap_count, seed):
    # random ramps around `repetitions` copies of a random period, through
    # taps from 0 to one period late, as late as a campaign's may be, read
    # from the period form that modulate makes (held whole when too short
    # to repeat anything) and from the whole waveform: the output must
    # give the direct sum's bytes over the expanded waveform
    rng = np.random.default_rng(seed)

    def noise(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    samples = np.concatenate([noise(ramp), np.tile(noise(period), repetitions),
                              noise(ramp)])
    shifts = np.sort(rng.choice(np.arange(1, period + 1),
                                size=min(tap_count - 1, period), replace=False))
    late = shifts[-1] if len(shifts) else 0
    channel = ch.MultipathChannel(gains=noise(len(shifts) + 1),
                                  delays=np.concatenate([[0], shifts]))
    for signal in (period_form(samples, period, ramp), make_form(samples, 1.0)):
        assert expand(signal).tobytes() == samples.tobytes()
        out = ch.apply_channel(signal, channel)
        assert out.length == len(samples) + late
        assert expand(out).tobytes() == direct_sum(signal, channel).tobytes()
        # a periodic output holds its ramp-in, one period and its tail
        if signal.period:
            assert len(out.samples) == 2 * (ramp + late) + period


def test_periodic_apply_channel_on_the_campaign_burst(chips10, rrc_taps, rng):
    # the criterion-9 burst of 12 PN periods through 5 chip-spaced taps
    burst = pulse.modulate(chips10, 12, rrc_taps, 60e-9)
    channel = ch.MultipathChannel(
        gains=rng.normal(size=5) + 1j * rng.normal(size=5),
        delays=np.array([0, 1, 4, 9, 31]) * 60e-9)
    out = ch.apply_channel(burst, channel)
    assert expand(out).tobytes() == direct_sum(burst, channel).tobytes()
    assert expand(out).tobytes() == direct_sum(
        whole(oracle_modulate(chips10, 12, rrc_taps, 60e-9)), channel).tobytes()
    # the period form holds the ramp-in, one period and the tail, not the
    # other ten periods
    sps = rrc_taps.samples_per_symbol
    assert len(out.samples) == 2 * (len(rrc_taps.coefficients) - 1 + 31 * sps) \
        + chips10.period_length * sps


def test_channel_invariants():
    # the channels that apply_channel and the sounders take: first delay
    # 0, strictly increasing finite delays on the grid, finite gains
    # carrying the path loss's power. At the least spread, 1 ps, on the
    # longest chip period's grid, 1 ms, a late tap's delay is 1e9 spreads
    # and its power 0, with no warning; the longest spread, 1 s, is drawn
    # on the 1 ns grid of a frequency campaign
    for scale, grid in ((9e-8, 60e-9), (2.5e-7, 1e-9), (1e-12, 1e-3),
                        (1.0, 1e-9)):
        env = ch.EnvironmentModel(reference_loss_db=40.0,
                                  path_loss_exponent=2.8,
                                  delay_spread_scale_s=scale,
                                  tap_count_range=(1, 8))
        for seed in range(40):
            chan, loss = ch.synthesize_channel(env, (2.0, 2.0, 1.1),
                                               (7.0, 3.0, 1.2), seed,
                                               delay_grid_s=grid)
            assert chan.delays[0] == 0.0
            assert (np.diff(chan.delays) > 0).all()
            assert np.isfinite(chan.delays).all()
            steps = chan.delays / grid
            npt.assert_allclose(steps, np.round(steps), atol=1e-9)
            assert np.isfinite(chan.gains.view(np.float64)).all()
            assert chan.total_power() == pytest.approx(10 ** (-loss / 10))
    with pytest.raises(ValueError, match=r"^tap_count_range\[1\]: 4097 is "
                                         r"outside \[1, 4096\]$"):
        ch.EnvironmentModel(40.0, 2.0, tap_count_range=(1, ch.MAX_TAPS + 1))
    with pytest.raises(ValueError, match=r"^tap_count_range: 5 is above 3$"):
        ch.EnvironmentModel(40.0, 2.0, tap_count_range=(5, 3))


def test_linearity_exact(rng):
    chan = ch.MultipathChannel(gains=[0.8, 0.3j], delays=[0.0, 4e-6])
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    b = rng.normal(size=64) + 1j * rng.normal(size=64)
    combined = expand(ch.apply_channel(make_form(a + b), chan))
    separate = (expand(ch.apply_channel(make_form(a), chan))
                + expand(ch.apply_channel(make_form(b), chan)))
    npt.assert_allclose(combined, separate, rtol=1e-12, atol=1e-14)


def test_time_invariance_exact(rng):
    chan = ch.MultipathChannel(gains=[0.8, 0.3j], delays=[0.0, 4e-6])
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    out = expand(ch.apply_channel(make_form(x), chan))
    shifted_in = np.concatenate([np.zeros(5), x])
    out_shifted = expand(ch.apply_channel(make_form(shifted_in), chan))
    npt.assert_array_equal(out_shifted[5:], out)
    npt.assert_array_equal(out_shifted[:5], 0.0)


# the capture noise is added where captures are composed
# (multitx.compose_received); add_noise reaches it for a bare signal
def test_awgn_flag_value_passthrough():
    signal = make_signal(np.ones(16))
    out = add_noise(signal, None, seed=3)
    npt.assert_array_equal(out.samples, signal.samples)


def test_awgn_variance():
    signal = make_signal(np.zeros(10**6))
    out = add_noise(signal, -13.0, seed=9)
    variance = np.mean(np.abs(out.samples) ** 2)
    nominal = 10 ** (-13.0 / 10.0)
    assert abs(variance - nominal) / nominal < 0.02


def test_awgn_deterministic():
    signal = make_signal(np.ones(256))
    one = add_noise(signal, -20.0, seed=11)
    two = add_noise(signal, -20.0, seed=11)
    npt.assert_array_equal(one.samples, two.samples)


def test_power_bookkeeping_white_input(rng):
    chan = ch.MultipathChannel(gains=[0.7, 0.4j, -0.2], delays=[0.0, 1e-6, 5e-6])
    x = (rng.normal(size=200_000) + 1j * rng.normal(size=200_000)) / math.sqrt(2)
    out = expand(ch.apply_channel(make_form(x), chan))
    out_power = np.mean(np.abs(out[:200_000]) ** 2)
    assert abs(out_power - chan.total_power()) / chan.total_power() < 0.02


def test_frequency_response_flat():
    flat = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    for f in (0.0, 1e6, -3e9):
        assert ch.frequency_response(flat, f) == 1.0 + 0.0j


def test_frequency_response_two_tap_closed_form():
    chan = ch.MultipathChannel(gains=[1.0, 1.0], delays=[0.0, 250e-9])
    got = ch.frequency_response(chan, 2e6)
    expected = 1.0 + np.exp(-2j * np.pi * 2e6 * 250e-9)
    assert got == pytest.approx(expected, abs=1e-15)


def test_frequency_response_at_zero_is_gain_sum(rng):
    gains = rng.normal(size=4) + 1j * rng.normal(size=4)
    gains[0] = 1.0
    chan = ch.MultipathChannel(gains=gains, delays=[0.0, 1e-6, 2e-6, 5e-6])
    assert ch.frequency_response(chan, 0.0) == complex(np.sum(gains))


def test_frequency_response_matches_dft():
    rate = 1e6
    chan = ch.MultipathChannel(gains=[1.0, 0.5 - 0.2j, 0.1j],
                               delays=[0.0, 2e-6, 9e-6])
    n = 64
    impulse = np.zeros(n, dtype=np.complex128)
    impulse[[0, 2, 9]] = chan.gains
    dft = np.fft.fft(impulse)
    bins = np.fft.fftfreq(n, d=1.0 / rate)
    npt.assert_allclose(ch.frequency_response(chan, bins), dft, atol=1e-9)


def test_synthesize_log_distance_arithmetic():
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.0,
                              reference_distance_m=1.0)
    chan, loss = ch.synthesize_channel(env, (0, 0, 0), (10.0, 0, 0), seed=5,
                                      delay_grid_s=GRID_S)
    assert loss == pytest.approx(60.0)
    assert chan.total_power() == pytest.approx(10 ** (-60.0 / 10.0), rel=1e-12)


def test_synthesize_deterministic():
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.5,
                              delay_spread_scale_s=8e-8, tap_count_range=(2, 6))
    one, two = [ch.synthesize_channel(env, (0, 0, 0), (7.0, 3.0, 1.0), seed=42,
                                      delay_grid_s=GRID_S)[0]
                for _ in range(2)]
    npt.assert_array_equal(one.gains, two.gains)
    npt.assert_array_equal(one.delays, two.delays)


def test_synthesize_monte_carlo_mean_power():
    env = ch.EnvironmentModel(reference_loss_db=35.0, path_loss_exponent=3.0,
                              delay_spread_scale_s=1e-7, tap_count_range=(1, 8))
    target = None
    powers = []
    for seed in range(1000):
        chan, loss = ch.synthesize_channel(env, (0, 0, 0), (5.0, 0, 0), seed=seed,
                                          delay_grid_s=GRID_S)
        target = 10 ** (-loss / 10.0)
        powers.append(chan.total_power())
    mean_db = 10 * math.log10(np.mean(powers))
    assert abs(mean_db - 10 * math.log10(target)) < 0.5


def test_synthesize_structure():
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.0,
                              delay_spread_scale_s=2e-7, tap_count_range=(4, 8))
    chan, _ = ch.synthesize_channel(env, (0, 0, 0), (3.0, 4.0, 0.0), seed=8,
                                    delay_grid_s=GRID_S)
    assert chan.delays[0] == 0.0
    assert np.all(np.diff(chan.delays) > 0)
    steps = chan.delays / GRID_S
    npt.assert_allclose(steps, np.round(steps), atol=1e-9)


@pytest.mark.parametrize("scale", [0.0, 9e-8, 2.5e-7])
@pytest.mark.parametrize("taps", [(1, 1), (3, 6), (2, 8)])
def test_synthesize_matches_the_cumsum_oracle_bit_for_bit(scale, taps):
    # the same generator calls in the same order, and the delays summed
    # and snapped over Python floats as np.cumsum and the numpy loop did
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.8,
                              delay_spread_scale_s=scale,
                              tap_count_range=taps, wall_loss_db=3.0,
                              wall_grid_spacing_m=6.0)
    rng = np.random.default_rng(29)
    for seed in range(200):
        rx = tuple(rng.uniform(0.5, 40.0, size=3))
        chan, loss = ch.synthesize_channel(env, (2.0, 2.0, 1.1), rx, seed,
                                           delay_grid_s=GRID_S)
        gains, delays, want = oracle_synthesize_channel(env, (2.0, 2.0, 1.1),
                                                        rx, seed, GRID_S)
        assert chan.gains.tobytes() == gains.tobytes()
        assert chan.delays.tobytes() == delays.tobytes()
        assert loss == want


def test_synthesize_wall_losses():
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.0,
                              wall_loss_db=3.0, wall_grid_spacing_m=5.0)
    _, through = ch.synthesize_channel(env, (1.0, 1.0, 0), (13.0, 1.0, 0), seed=0,
                                        delay_grid_s=GRID_S)
    open_env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.0)
    _, free = ch.synthesize_channel(open_env, (1.0, 1.0, 0), (13.0, 1.0, 0),
                                     seed=0, delay_grid_s=GRID_S)
    assert through == pytest.approx(free + 2 * 3.0)


def test_synthesize_coincident_positions():
    env = ch.EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.0)
    with pytest.raises(ValueError, match="coincide"):
        ch.synthesize_channel(env, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0), seed=0,
                              delay_grid_s=GRID_S)



@given(noise_power_dbfs=st.floats(-240.0, 60.0) | st.sampled_from(
           [None, -120.0, 30.0]),
       seed=st.integers(0, 2**63 - 1), n=st.integers(1, 3000))
@settings(max_examples=60)
def test_add_noise_draws_the_two_normal_rails_in_place(noise_power_dbfs,
                                                       seed, n):
    # the in-place helper adds, bit for bit, the in-phase and then the
    # quadrature rail of rng.normal(scale=sigma); None adds nothing
    rng = np.random.default_rng(seed % 1000)
    before = rng.normal(size=n) + 1j * rng.normal(size=n)
    samples = before.copy()
    ch.add_noise(samples, noise_power_dbfs, seed)
    if noise_power_dbfs is None:
        assert np.array_equal(samples, before)
        return
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(10.0 ** (noise_power_dbfs / 10.0) / 2.0)
    real = rng.normal(scale=sigma, size=n)
    imag = rng.normal(scale=sigma, size=n)
    assert np.array_equal(samples.real, before.real + real)
    assert np.array_equal(samples.imag, before.imag + imag)


def test_add_noise_writes_a_row_of_a_frame_in_place():
    rows = np.zeros((3, 500), dtype=np.complex128)
    ch.add_noise(rows[1], -20.0, 5)
    assert not rows[0].any() and not rows[2].any()
    rng = np.random.default_rng(5)
    sigma = math.sqrt(10.0 ** (-20.0 / 10.0) / 2.0)
    assert np.array_equal(rows[1], rng.normal(scale=sigma, size=500)
                          + 1j * rng.normal(scale=sigma, size=500))
