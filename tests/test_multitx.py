import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chansounder import channel as ch
from chansounder import multitx, pulse, schema, sliding, sweep

from helpers import (oracle_compose_received, oracle_guard_core_power_ratio,
                     per_sample_compose)


@pytest.fixture(scope="module")
def tdma_setup(request):
    """Burst, slot geometry, and schedule for a 3-transmitter TDMA scene."""
    chips10 = request.getfixturevalue("chips10")
    rrc_taps = request.getfixturevalue("rrc_taps")
    config = sliding.SounderConfig()
    burst = pulse.modulate(chips10, config.averaging_periods + 2, rrc_taps,
                           config.chip_period_s)
    sps = rrc_taps.samples_per_symbol
    slot_samples = math.ceil(len(burst) / 0.9 / sps) * sps
    guard = ((slot_samples - len(burst)) // 2) // sps * sps
    schedule = multitx.build_schedule(3, slot_samples / burst.sample_rate)
    return burst, guard, schedule, config


def flat_channel(level_db=0.0):
    return ch.MultipathChannel(gains=[10 ** (-level_db / 20.0)], delays=[0.0])


def test_schedule_slot_ownership():
    schedule = multitx.build_schedule(3, 1.0)
    assert schedule.period == 3.0
    assert schedule.slot_interval(1, 0) == (1.0, 2.0)
    assert schedule.slot_interval(1, 1) == (4.0, 5.0)


def test_single_transmitter_owns_everything():
    schedule = multitx.build_schedule(1, 2.0)
    for period_index in range(4):
        assert schedule.slot_interval(0, period_index) \
            == (2.0 * period_index, 2.0 * period_index + 2.0)


def test_slot_tiling_partitions_each_period():
    schedule = multitx.build_schedule(4, 0.25)
    for period_index in range(3):
        edges = [schedule.slot_interval(i, period_index) for i in range(4)]
        # disjoint, adjacent, and tiling exactly one period
        for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
            assert hi1 == lo2
        assert edges[0][0] == period_index * schedule.period
        assert edges[-1][1] == (period_index + 1) * schedule.period


def test_draw_clock_spreads_and_determinism():
    assert multitx.NTP_OFFSET_STD == 5e-3
    assert multitx.GPS_OFFSET_STD == 100e-9
    one = multitx.draw_clock(multitx.NTP_OFFSET_STD, seed=4)
    two = multitx.draw_clock(multitx.NTP_OFFSET_STD, seed=4)
    assert one.offset == two.offset != 0.0
    offsets = [multitx.draw_clock(multitx.GPS_OFFSET_STD, seed=s).offset
               for s in range(200)]
    spread = np.std(offsets)
    assert 0.5 * multitx.GPS_OFFSET_STD < spread < 2.0 * multitx.GPS_OFFSET_STD
    assert multitx.draw_clock(0.0, seed=1).offset == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        multitx.build_schedule(0, 1.0)
    with pytest.raises(ValueError):
        multitx.build_schedule(3, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        multitx.LeakageModel(parked_leakage_db=-3.0)


def test_segment_distinct_constants():
    rate = 1000.0
    schedule = multitx.build_schedule(3, 0.1)
    samples = np.concatenate([np.full(100, 1.0), np.full(100, 2.0),
                              np.full(100, 3.0)]).astype(np.complex128)
    capture = pulse.BasebandSignal(samples, rate)
    segmented = multitx.segment_capture(capture, schedule, trim_samples=5)
    for i, segment in enumerate(segmented.segments):
        npt.assert_array_equal(segment.samples, i + 1.0)
        assert len(segment) == 90


def test_segment_preconditions():
    rate = 1000.0
    schedule = multitx.build_schedule(3, 0.1)
    short = pulse.BasebandSignal(np.ones(200), rate)
    with pytest.raises(ValueError, match="shorter"):
        multitx.segment_capture(short, schedule)
    good = pulse.BasebandSignal(np.ones(300), rate)
    with pytest.raises(ValueError, match="consume"):
        multitx.segment_capture(good, schedule, trim_samples=60)


def test_compose_single_tx_matches_apply_channel(tdma_setup):
    burst, guard, _, _ = tdma_setup
    chan = ch.MultipathChannel(gains=[0.5, 0.25j],
                               delays=[0.0, 12 / burst.sample_rate])
    schedule = multitx.build_schedule(1, (len(burst) + 64) / burst.sample_rate)
    scene = [multitx.SceneTransmitter(burst, chan)]
    capture = multitx.compose_received(scene, schedule, burst_offset_samples=0)
    direct = ch.apply_channel(burst, chan)
    overlap = min(len(capture), len(direct))
    npt.assert_array_equal(capture.samples[:overlap], direct.samples[:overlap])
    npt.assert_array_equal(capture.samples[overlap:], 0.0)


def test_compose_leakage_off_is_exactly_isolated(tdma_setup):
    burst, guard, schedule, _ = tdma_setup
    rate = burst.sample_rate
    slot_samples = int(round(schedule.slot_length * rate))
    channels = [flat_channel(0.0), flat_channel(20.0), flat_channel(40.0)]
    scene = [multitx.SceneTransmitter(burst, c, multitx.PARK_OFF_BAND)
             for c in channels]
    capture = multitx.compose_received(scene, schedule,
                                       burst_offset_samples=guard)
    for i, chan in enumerate(channels):
        segment = capture.samples[i * slot_samples:(i + 1) * slot_samples]
        received = ch.apply_channel(burst, chan).samples
        expected = np.zeros(slot_samples, dtype=np.complex128)
        usable = min(slot_samples - guard, len(received))
        expected[guard:guard + usable] = received[:usable]
        npt.assert_array_equal(segment, expected)


def test_small_clock_offset_keeps_sounding_bit_identical(tdma_setup, chips10,
                                                         rrc_taps):
    burst, guard, schedule, config = tdma_setup
    rate = burst.sample_rate
    chan = ch.MultipathChannel(gains=[1.0, 0.3], delays=[0.0, 2 * config.chip_period_s])

    def profile_with_offset(offset_samples):
        clock = multitx.ClockModel(offset=offset_samples / rate)
        scene = [multitx.SceneTransmitter(burst, chan, clock=clock),
                 multitx.SceneTransmitter(burst, flat_channel(30.0), clock=clock),
                 multitx.SceneTransmitter(burst, flat_channel(35.0), clock=clock)]
        capture = multitx.compose_received(scene, schedule,
                                           burst_offset_samples=guard)
        segmented = multitx.segment_capture(capture, schedule,
                                            trim_samples=guard)
        assert not segmented.misaligned
        return sliding.measure_sliding(segmented.segments[0], chips10,
                                       rrc_taps, config)

    base = profile_with_offset(0)
    small = profile_with_offset(-8)  # well under the guard trim
    npt.assert_array_equal(base.lags, small.lags)
    npt.assert_array_equal(base.gains, small.gains)
    assert base.wideband_path_loss_db == small.wideband_path_loss_db


def test_gross_clock_offset_raises_flag(tdma_setup):
    burst, guard, schedule, _ = tdma_setup
    rate = burst.sample_rate
    offset = 1.5 * schedule.slot_length  # misattributes every segment
    clock = multitx.ClockModel(offset=offset)
    scene = [multitx.SceneTransmitter(burst, flat_channel(0.0), clock=clock),
             multitx.SceneTransmitter(burst, flat_channel(3.0), clock=clock),
             multitx.SceneTransmitter(burst, flat_channel(6.0), clock=clock)]
    capture = multitx.compose_received(scene, schedule,
                                       burst_offset_samples=guard)
    segmented = multitx.segment_capture(capture, schedule, trim_samples=guard)
    assert segmented.misaligned
    assert segmented.guard_core_ratio > 0.25


def test_guard_core_power_ratio_matches_mean_of_squares(tdma_setup):
    # random slot counts, slot lengths, trims and per-sample levels, plus
    # a real capture whose bursts spill into the guards
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        count = int(rng.integers(1, 7))
        slot = int(rng.integers(3, 500))
        trim = int(rng.integers(0, (slot + 1) // 2))
        n = count * slot
        samples = ((rng.normal(size=n) + 1j * rng.normal(size=n))
                   * 10.0 ** rng.uniform(-4, 2, size=n))
        cases.append((pulse.BasebandSignal(samples=samples, sample_rate=1e6),
                      multitx.build_schedule(count, slot / 1e6), trim))
    burst, guard, schedule, _ = tdma_setup
    clock = multitx.ClockModel(offset=1.5 * schedule.slot_length)
    scene = [multitx.SceneTransmitter(burst, flat_channel(6.0 * k), clock=clock)
             for k in range(3)]
    cases.append((multitx.compose_received(scene, schedule,
                                           burst_offset_samples=guard),
                  schedule, guard))
    for signal, schedule, trim in cases:
        want = oracle_guard_core_power_ratio(signal, schedule, trim)
        got = multitx.guard_core_power_ratio(signal, schedule, trim)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert want > 0.25  # the spilled capture is misaligned either way


def test_near_far_failure_and_mitigation(tdma_setup, chips10, rrc_taps):
    burst, guard, _, config = tdma_setup
    rate = burst.sample_rate
    slot_samples = math.ceil(len(burst) / 0.9 / 4) * 4
    schedule = multitx.build_schedule(2, slot_samples / rate)
    near = flat_channel(40.0)
    far = flat_channel(80.0)

    def far_loss(park_mode):
        scene = [multitx.SceneTransmitter(burst, near, park_mode),
                 multitx.SceneTransmitter(burst, far, park_mode)]
        leakage = multitx.LeakageModel(parked_leakage_db=math.inf,
                                       inband_null_leakage_db=30.0)
        capture = multitx.compose_received(scene, schedule, leakage=leakage,
                                           burst_offset_samples=guard)
        segmented = multitx.segment_capture(capture, schedule,
                                            trim_samples=guard)
        profile = sliding.measure_sliding(segmented.segments[1], chips10,
                                          rrc_taps, config)
        return profile.wideband_path_loss_db

    corrupted = far_loss(multitx.PARK_IN_BAND)
    clean = far_loss(multitx.PARK_OFF_BAND)
    assert abs(corrupted - 80.0) > 3.0
    assert abs(clean - 80.0) < 0.1


def test_leakage_monotonicity(tdma_setup, chips10, rrc_taps):
    # more attenuation on the parked transmitters never hurts the far one
    burst, guard, schedule, config = tdma_setup
    near = flat_channel(40.0)
    far = flat_channel(80.0)
    third = flat_channel(60.0)
    errors = []
    for attenuation in (20.0, 30.0, 45.0, 60.0, 90.0):
        scene = [multitx.SceneTransmitter(burst, near, multitx.PARK_IN_BAND),
                 multitx.SceneTransmitter(burst, third, multitx.PARK_IN_BAND),
                 multitx.SceneTransmitter(burst, far, multitx.PARK_IN_BAND)]
        leakage = multitx.LeakageModel(inband_null_leakage_db=attenuation)
        capture = multitx.compose_received(scene, schedule, leakage=leakage,
                                           burst_offset_samples=guard)
        segmented = multitx.segment_capture(capture, schedule,
                                            trim_samples=guard)
        profile = sliding.measure_sliding(segmented.segments[2], chips10,
                                          rrc_taps, config)
        errors.append(abs(profile.wideband_path_loss_db - 80.0))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
    assert errors[0] > errors[-1]


def test_compose_rejects_scene_larger_than_schedule():
    schedule = multitx.build_schedule(2, 0.1)
    burst = pulse.BasebandSignal(np.ones(50), 1000.0)
    scene = [multitx.SceneTransmitter(burst, flat_channel())] * 3
    with pytest.raises(ValueError, match="slots"):
        multitx.compose_received(scene, schedule)


@pytest.mark.parametrize("leak_db", [math.inf, 30.0])
def test_slice_placement_matches_per_sample_mapping(leak_db):
    # slice placement must agree bit for bit with mapping every sample
    # through its perceived slot position
    rate, slot = 1000.0, 100
    schedule = multitx.build_schedule(3, slot / rate)
    leakage = multitx.LeakageModel(parked_leakage_db=math.inf,
                                   inband_null_leakage_db=leak_db)
    rng = np.random.default_rng(17)
    period = 3 * slot
    shifts = [0, 3, -3, 7, -11, slot, -slot + 5, 2 * slot - 2, -4 * slot - 1,
              period, 5 * period + 13]
    for burst_len, burst_offset in ((60, 20), (95, 30), (130, 10), (40, -5)):
        for duration in (period, 2.37 * period, 0.6 * period):
            offsets = rng.choice(shifts, size=3)
            scene = []
            for i, shift in enumerate(offsets):
                rng_tx = np.random.default_rng(i)
                waveform = pulse.BasebandSignal(
                    rng_tx.normal(size=burst_len)
                    + 1j * rng_tx.normal(size=burst_len), rate)
                scene.append(multitx.SceneTransmitter(
                    waveform, flat_channel(6.0 * i), multitx.PARK_IN_BAND,
                    multitx.ClockModel(offset=shift / rate)))
            kwargs = dict(leakage=leakage, burst_offset_samples=burst_offset,
                          duration=duration / rate)
            sliced = multitx.compose_received(scene, schedule, **kwargs)
            mapped = per_sample_compose(scene, schedule, **kwargs)
            assert np.array_equal(sliced.samples, mapped.samples), \
                (burst_len, burst_offset, duration, offsets)


def test_compose_matches_tiled_leakage_and_complex_noise_oracle():
    # wrapped-slice leakage and per-rail noise must reproduce the capture
    # of a full-length leakage tile plus A + 1j * B noise byte for byte
    rate, slot = 1000.0, 100
    schedule = multitx.build_schedule(3, slot / rate)
    period = 3 * slot
    rng = np.random.default_rng(23)
    cases = 0
    for leak_db in (math.inf, 30.0, 0.0):
        leakage = multitx.LeakageModel(parked_leakage_db=math.inf,
                                       inband_null_leakage_db=leak_db)
        for noise in (None, -math.inf, -20.0):
            for burst_len, duration in ((60, period), (95, 2.37 * period),
                                        (130, 0.6 * period),
                                        (700, 1.5 * period)):
                shifts = rng.integers(-4 * period, 4 * period, size=3)
                scene = []
                for i, shift in enumerate(shifts):
                    samples = rng.normal(size=burst_len) \
                        + 1j * rng.normal(size=burst_len)
                    clock = multitx.ClockModel(offset=int(shift) / rate)
                    scene.append(multitx.SceneTransmitter(
                        pulse.BasebandSignal(samples, rate),
                        flat_channel(6.0 * i), multitx.PARK_IN_BAND, clock))
                kwargs = dict(leakage=leakage, burst_offset_samples=20,
                              duration=duration / rate,
                              noise_power_dbfs=noise, seed=cases)
                got = multitx.compose_received(scene, schedule, **kwargs)
                expected = oracle_compose_received(scene, schedule, **kwargs)
                assert got.samples.tobytes() == expected.samples.tobytes(), \
                    (leak_db, noise, burst_len, duration, shifts)
                cases += 1
    assert cases == 36


def frequency_setup(guard_band_hz, carrier_count=1, **overrides):
    return sweep.FrequencySetup(
        carriers_hz=tuple(700e6 + 2e6 * k for k in range(carrier_count)),
        guard_band_hz=guard_band_hz, **overrides)


def test_frequency_plan_default_capacity():
    capacity = len(multitx.build_frequency_plan(
        frequency_setup(150e3), 100)[0].tone_offsets)
    assert capacity in (5, 6)
    plans = multitx.build_frequency_plan(frequency_setup(150e3, 10), capacity)
    assert len(plans) == 1
    assert len(plans[0].tone_offsets) == capacity


def test_frequency_plan_single_transmitter():
    plans = multitx.build_frequency_plan(frequency_setup(25e3, 2), 1)
    assert len(plans) == 1
    assert len(plans[0].tone_offsets) == 1


def test_frequency_plan_multi_frame():
    # capacity 6 at 140 kHz guard in a 1 MHz band: 12 transmitters need 2 frames
    plans = multitx.build_frequency_plan(frequency_setup(140e3, 10), 12)
    assert len(plans) == 2
    assert [len(p.tone_offsets) for p in plans] == [6, 6]


def test_frequency_plan_infeasible():
    with pytest.raises(ValueError, match="capacity"):
        multitx.build_frequency_plan(frequency_setup(2e6), 2)
    with pytest.raises(ValueError, match="^guard_band_hz: must be positive"):
        multitx.build_frequency_plan(frequency_setup(0.0), 2)
    explicit = frequency_setup(25e3, tone_offsets_hz=(0.0, 1e5))
    with pytest.raises(ValueError, match="^tone_offsets_hz: one tone per"):
        multitx.build_frequency_plan(explicit, 3)


def test_frequency_plan_emits_valid_plans():
    plans = multitx.build_frequency_plan(frequency_setup(100e3, 10), 4)
    plan = plans[0]
    bin_width = plan.sample_rate / plan.fft_length
    for tone in plan.tone_offsets:
        assert abs(tone) < plan.sample_rate / 2
        assert abs(tone / bin_width - round(tone / bin_width)) < 1e-6
    spacing = np.diff(np.sort(plan.tone_offsets))
    assert np.all(spacing >= plan.guard_band - 1e-9)


@st.composite
def frequency_blocks(draw):
    sample_rate = draw(st.sampled_from([250e3, 1e6, 2.5e6]))
    fft_length = draw(st.sampled_from([64, 256, 1000, 4096]))
    bin_width = sample_rate / fft_length
    return sweep.FrequencySetup(
        carriers_hz=tuple(700e6 + 2e6 * k for k in range(draw(st.integers(1, 4)))),
        sample_rate_hz=sample_rate, fft_length=fft_length,
        guard_band_hz=draw(st.floats(0.5 * bin_width, 0.6 * sample_rate)),
        step_duration_s=fft_length / sample_rate * draw(st.integers(1, 3)))


@given(setup=frequency_blocks(), count=st.integers(1, 40))
def test_frequency_plan_packing_property(setup, count):
    try:
        plans = multitx.build_frequency_plan(setup, count)
    except ValueError as exc:
        # only a guard band too wide for the band leaves no tone
        assert "capacity 0" in str(exc) or "no tone fits" in str(exc)
        assert setup.guard_band_hz > setup.sample_rate_hz / 2
        return
    capacity = len(plans[0].tone_offsets)
    assert len(plans) == math.ceil(count / capacity)
    assert [len(p.tone_offsets) for p in plans[:-1]] == [capacity] * (len(plans) - 1)
    assert sum(len(p.tone_offsets) for p in plans) == count
    bin_width = setup.sample_rate_hz / setup.fft_length
    for plan in plans:
        tones = plan.tone_offsets
        bins = tones / bin_width
        assert np.all(np.abs(bins - np.round(bins)) < 1e-6)
        assert np.all(np.abs(tones) < setup.sample_rate_hz / 2)
        assert np.all(np.diff(tones) >= setup.guard_band_hz - 1e-6)
        npt.assert_array_equal(plan.carrier_list, setup.carriers_hz)
    # the block round-trips through the strict loader, with the tones
    # left to the packer and with the packed tones written out
    explicit = replace(setup, tone_offsets_hz=tuple(float(f) for f in plans[0].tone_offsets))
    for block in (setup, explicit):
        doc = json.loads(json.dumps(schema.to_json(block)))
        assert schema.from_json(sweep.FrequencySetup, doc, "frequency") == block
    again = multitx.build_frequency_plan(explicit, capacity)
    assert len(again) == 1
    npt.assert_array_equal(again[0].tone_offsets, plans[0].tone_offsets)
