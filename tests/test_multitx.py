import json
import math
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import campaign
from chansounder import channel as ch
from chansounder import multitx, pulse, schema, sliding, sweep

from helpers import (expand, frequency_blocks, oracle_compose_received,
                     oracle_guard_core_power_ratio, per_sample_compose,
                     period_form, tap_gains, tap_lags, whole)


@pytest.fixture(scope="module")
def tdma_setup(request):
    """Burst, schedule and config for a 3-transmitter TDMA scene, its
    slot sized to the burst as a campaign sizes it."""
    chips10 = request.getfixturevalue("chips10")
    rrc_taps = request.getfixturevalue("rrc_taps")
    config = sliding.SounderConfig()
    burst = pulse.modulate(chips10, config.averaging_periods + 2, rrc_taps,
                           config.chip_period_s)
    schedule = multitx.build_schedule(multitx.ScheduleSetup(), 3, len(burst),
                                      rrc_taps.samples_per_symbol,
                                      burst.sample_rate)
    return burst, schedule, config


def flat_channel(level_db=0.0):
    return ch.MultipathChannel(gains=[10 ** (-level_db / 20.0)], delays=[0.0])


def test_schedule_slot_ownership():
    # slot i of the period is samples [100 i, 100 (i + 1)); segment i is
    # slot i without its two 10-sample guards
    schedule = multitx.TdmaSchedule(3, 100, 10)
    assert schedule.period_samples == 300
    segments = multitx.segment_capture(
        pulse.BasebandSignal(np.arange(300.0), 1000.0), schedule)
    assert segments.samples.shape == (3, 80)
    for i, segment in enumerate(segments.samples):
        npt.assert_array_equal(segment,
                               np.arange(100.0 * i + 10, 100.0 * i + 90))


def test_segments_are_one_view_of_the_capture():
    # the stack shares the capture's checked samples, read-only
    samples = np.arange(300.0).astype(np.complex128)
    segments = multitx.segment_capture(
        pulse.BasebandSignal(samples, 1000.0, 2.0),
        multitx.TdmaSchedule(3, 100, 10))
    assert np.shares_memory(segments.samples, samples)
    assert not segments.samples.flags.writeable
    assert (segments.sample_rate, segments.origin_time) == (1000.0, 2.0)


def test_single_transmitter_owns_everything():
    # one slot is the whole period; with no guard its segment is the
    # whole capture
    schedule = multitx.TdmaSchedule(1, 200, 0)
    assert schedule.period_samples == 200
    capture = np.arange(200.0)
    [segment] = multitx.segment_capture(
        pulse.BasebandSignal(capture, 1000.0), schedule).samples
    npt.assert_array_equal(segment, np.arange(200.0))
    assert not multitx.misaligned(capture, schedule)


def test_slot_tiling_partitions_each_period():
    # the head guard, segment and tail guard of every slot, in slot
    # order, tile the period exactly: disjoint, adjacent, nothing left
    capture = np.arange(100.0)
    for guard in range(13):
        schedule = multitx.TdmaSchedule(4, 25, guard)
        segments = multitx.segment_capture(
            pulse.BasebandSignal(capture, 1000.0), schedule)
        pieces = []
        for i, segment in enumerate(segments.samples):
            lo, hi = 25 * i, 25 * (i + 1)
            pieces += [np.arange(lo, lo + guard), segment.real,
                       np.arange(hi - guard, hi)]
        npt.assert_array_equal(np.concatenate(pieces), capture)


def test_draw_clock_spreads_and_determinism():
    # each node's offset is one Gaussian draw from its own seed, made
    # whole samples once, when the campaign is prepared
    rate = 1e9  # 100 ns is 100 samples
    nodes = tuple(campaign.Transmitter(f"tx{k}", (float(k), 0.0, 1.0))
                  for k in range(200))

    def offsets(std, seed=4, rx_offset_s=0.0):
        scenario = campaign.Scenario(
            mode="sliding", transmitters=nodes,
            receiver_path=((0.0, 1.0, 1.0),),
            environment=ch.EnvironmentModel(40.0, 2.0), master_seed=seed,
            clocks=campaign.ClockSetup(offset_std_s=std,
                                       rx_offset_s=rx_offset_s))
        return campaign._tx_clock_offsets(scenario, rate)

    drawn = offsets(100e-9)
    assert drawn == offsets(100e-9) != offsets(100e-9, seed=5)
    assert drawn == [
        int(round(float(np.random.default_rng(campaign.derive_seed(
            4, "clock", tx.id)).normal(scale=100e-9)) * rate))
        for tx in nodes]
    assert all(type(k) is int for k in drawn)
    assert 50.0 < np.std(drawn) < 200.0
    assert offsets(0.0) == [0] * len(nodes)
    # the receiver's own error shifts every node the other way
    assert offsets(0.0, rx_offset_s=3e-9) == [-3] * len(nodes)


def test_schedule_validation():
    setup = multitx.ScheduleSetup(slot_length_s=1e-6)
    with pytest.raises(ValueError, match="^slot_length_s: slot of 64 samples "
                                         "cannot hold the 65-sample burst"):
        multitx.build_schedule(setup, 3, 65, 4, 64e6)
    assert multitx.build_schedule(setup, 3, 64, 4, 64e6) \
        == multitx.TdmaSchedule(3, 64, 0)
    with pytest.raises(ValueError, match=r"^slot_length_s: 0.0 s is outside "
                                         r"\[1e-09, 1\] s$"):
        multitx.ScheduleSetup(slot_length_s=0.0)
    with pytest.raises(ValueError, match=r"^parked_leakage_db: -3.0 dB is not "
                                         r"inf and outside \[0, 1000\] dB$"):
        multitx.LeakageModel(parked_leakage_db=-3.0)


def test_built_schedules_keep_the_campaign_geometry(tdma_setup):
    # sliding-c9's numbers: a 49152-sample burst at 66.67 MHz sits in a
    # 54616-sample slot, 2732 samples (a whole number of symbols) from
    # either end of it
    burst, schedule, _ = tdma_setup
    assert (len(burst), schedule) == (49152, multitx.TdmaSchedule(3, 54616, 2732))
    explicit = multitx.build_schedule(
        multitx.ScheduleSetup(slot_length_s=60000 / burst.sample_rate), 3,
        len(burst), 4, burst.sample_rate)
    # the guard fraction caps an explicit slot's guard at 5%, in symbols
    assert explicit == multitx.TdmaSchedule(3, 60000, 3000)


def test_segment_distinct_constants():
    rate = 1000.0
    schedule = multitx.TdmaSchedule(3, 100, 5)
    samples = np.concatenate([np.full(100, 1.0), np.full(100, 2.0),
                              np.full(100, 3.0)]).astype(np.complex128)
    segments = multitx.segment_capture(pulse.BasebandSignal(samples, rate),
                                       schedule)
    for i, segment in enumerate(segments.samples):
        npt.assert_array_equal(segment, i + 1.0)
        assert len(segment) == 90


def test_compose_single_tx_matches_apply_channel(tdma_setup):
    burst, _, _ = tdma_setup
    chan = ch.MultipathChannel(gains=[0.5, 0.25j],
                               delays=[0.0, 12 / burst.sample_rate])
    schedule = multitx.TdmaSchedule(1, len(burst) + 64, 0)
    capture = multitx.compose_received([burst], [chan], [0], schedule).samples
    direct = expand(ch.apply_channel(burst, chan))
    overlap = min(len(capture), len(direct))
    npt.assert_array_equal(capture[:overlap], direct[:overlap])
    npt.assert_array_equal(capture[overlap:], 0.0)


@pytest.mark.parametrize("guard", [0, 8, 2732])
def test_segment_starts_at_its_bursts_first_sample(tdma_setup, chips10,
                                                   rrc_taps, guard):
    # one transmitter, no clock offset, leakage or noise: the segment is
    # the received burst from its first sample on, on the burst's own
    # time axis, whatever the guard
    burst, _, config = tdma_setup
    chan = ch.MultipathChannel(gains=[0.5, 0.25j],
                               delays=[0.0, 12 / burst.sample_rate])
    schedule = multitx.TdmaSchedule(1, len(burst) + 2 * guard + 16, guard)
    capture = multitx.compose_received([burst], [chan], [0], schedule)
    segments = multitx.segment_capture(capture, schedule)
    [segment] = segments.samples
    received = expand(ch.apply_channel(burst, chan))
    assert len(segment) == len(received) + 4
    npt.assert_array_equal(segment[:len(received)], received)
    npt.assert_array_equal(segment[len(received):], 0.0)
    assert segments.origin_time == burst.origin_time
    [profile] = sliding.measure_sliding(segments, chips10, rrc_taps, config,
                                        [0.0])
    npt.assert_array_equal(tap_lags(profile), [0, 3])
    npt.assert_allclose(tap_gains(profile), [0.5, 0.25j], atol=1e-9)


def test_compose_leakage_off_is_exactly_isolated(tdma_setup):
    burst, schedule, _ = tdma_setup
    slot_samples, guard = schedule.slot_samples, schedule.guard_samples
    channels = [flat_channel(0.0), flat_channel(20.0), flat_channel(40.0)]
    leak_gain = multitx.LeakageModel().gain(multitx.PARK_OFF_BAND)
    assert leak_gain == 0.0
    capture = multitx.compose_received([burst] * 3, channels, [0] * 3,
                                       schedule, leak_gain=leak_gain).samples
    for i, chan in enumerate(channels):
        segment = capture[i * slot_samples:(i + 1) * slot_samples]
        received = expand(ch.apply_channel(burst, chan))
        expected = np.zeros(slot_samples, dtype=np.complex128)
        usable = min(slot_samples - guard, len(received))
        expected[guard:guard + usable] = received[:usable]
        npt.assert_array_equal(segment, expected)


def test_small_clock_offset_keeps_sounding_bit_identical(tdma_setup, chips10,
                                                         rrc_taps):
    burst, schedule, config = tdma_setup
    chan = ch.MultipathChannel(gains=[1.0, 0.3], delays=[0.0, 2 * config.chip_period_s])

    def profile_with_offset(offset_samples):
        capture = multitx.compose_received(
            [burst] * 3, [chan, flat_channel(30.0), flat_channel(35.0)],
            [offset_samples] * 3, schedule)
        segments = multitx.segment_capture(capture, schedule)
        assert not multitx.misaligned(capture.samples, schedule)
        return sliding.measure_sliding(segments, chips10,
                                       rrc_taps, config, [0.0] * 3)[0]

    base = profile_with_offset(0)
    small = profile_with_offset(-8)  # well under the guard trim
    npt.assert_array_equal(tap_lags(base), tap_lags(small))
    npt.assert_array_equal(tap_gains(base), tap_gains(small))
    assert base["path_loss_db"] == small["path_loss_db"]


def test_gross_clock_offset_raises_flag(tdma_setup):
    burst, schedule, _ = tdma_setup
    offset = 3 * schedule.slot_samples // 2  # misattributes every segment
    capture = multitx.compose_received(
        [burst] * 3, [flat_channel(level) for level in (0.0, 3.0, 6.0)],
        [offset] * 3, schedule)
    assert multitx.misaligned(capture.samples, schedule)


def test_misaligned_is_the_mean_of_squares_ratio_above_a_quarter(tdma_setup):
    # the flag is the oracle's guard/core ratio above 0.25: on random slot
    # counts, slot lengths, trims and per-sample levels, and on captures
    # that take either exit of the test
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        count = int(rng.integers(1, 7))
        slot = int(rng.integers(3, 500))
        trim = int(rng.integers(0, (slot + 1) // 2))
        n = count * slot
        samples = ((rng.normal(size=n) + 1j * rng.normal(size=n))
                   * 10.0 ** rng.uniform(-4, 2, size=n))
        cases.append((samples, multitx.TdmaSchedule(count, slot, trim)))
    three = multitx.TdmaSchedule(3, 100, 10)
    guards = np.r_[0:10, 90:110, 190:210, 290:300]
    # guards at 0.25 * (1 -+ 1e-12) of cores of unit power: each region
    # holds one level, so the ratio is that level within 1e-14
    for scale in (1 - 1e-12, 1 + 1e-12):
        samples = np.ones(300, dtype=np.complex128)
        samples[guards] = math.sqrt(0.25 * scale)
        cases.append((samples, three))
    # cores loud only past their first 10 samples: ratios 0.229 and 0.286,
    # which the cores' first guard_samples cannot settle
    for level in (0.2, 0.25):
        samples = np.ones(300, dtype=np.complex128)
        samples[guards] = math.sqrt(level)
        samples[np.r_[10:20, 110:120, 210:220]] = 0.0
        cases.append((samples, three))
    # a silent capture (0.0), power in a guard alone beside silent cores
    # (inf), and a loud capture with no guard (0.0)
    silent = np.zeros(300, dtype=np.complex128)
    guard_only = silent.copy()
    guard_only[195] = 1j
    cases += [(silent, three), (guard_only, three),
              (np.ones(300, dtype=np.complex128), replace(three, guard_samples=0))]
    burst, schedule, _ = tdma_setup
    offset = 3 * schedule.slot_samples // 2
    cases.append((multitx.compose_received(
        [burst] * 3, [flat_channel(6.0 * k) for k in range(3)], [offset] * 3,
        schedule).samples, schedule))
    decisions = []
    for samples, schedule in cases:
        want = oracle_guard_core_power_ratio(samples, schedule) > 0.25
        assert multitx.misaligned(samples, schedule) == want
        decisions.append(want)
    assert decisions[300:] == [False, True, False, True, False, True, False,
                               True]
    assert 0 < sum(decisions[:300]) < 300


def test_misaligned_reads_the_whole_cores_only_when_their_heads_cannot_settle_it(
        tdma_setup, monkeypatch):
    # the columns of the slot rows that each power sum reads: a silent
    # guard ends the test, a quiet one beside loud core heads ends it
    # after one guard_samples of every core, and only a core whose head
    # is quiet is read whole
    burst, schedule, _ = tdma_setup
    trim = schedule.guard_samples
    read = []
    einsum = np.einsum

    def spy(subscripts, *operands):
        read.append(operands[0].shape[1] // 2)  # float columns per sample
        return einsum(subscripts, *operands)

    monkeypatch.setattr(multitx.np, "einsum", spy)
    channels = [flat_channel(3.0 * k) for k in range(3)]
    for noise, want in ((None, [trim, trim]),
                        (-60.0, [trim, trim, trim])):
        read.clear()
        capture = multitx.compose_received([burst] * 3, channels, [0] * 3,
                                           schedule, noise_power_dbfs=noise,
                                           seed=5).samples
        assert not multitx.misaligned(capture, schedule)
        assert read == want
    # quiet guards beside cores loud only past their first guard_samples
    samples = np.full(300, 0.1, dtype=np.complex128)
    samples[np.r_[20:90, 120:190, 220:290]] = 1.0
    read.clear()
    assert not multitx.misaligned(samples, multitx.TdmaSchedule(3, 100, 10))
    assert read == [10, 10, 10, 80]


# sample k of each region of slot 1 of a TdmaSchedule(3, 100, 10)
REGIONS = {"head trim": 100, "core": 150, "tail trim": 195}


@pytest.mark.parametrize("region, flagged", [("core", False),
                                             ("head trim", True)])
def test_segmentation_accepts_finite_samples_whose_squares_overflow(
        region, flagged):
    # samples past the power range, whose squares overflow, are cut into
    # segments without a warning; their power is inf in the ratio
    samples = np.ones(300, dtype=np.complex128)
    samples[REGIONS[region]] = 1e200 - 1e200j
    schedule = multitx.TdmaSchedule(3, 100, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        segments = multitx.segment_capture(
            pulse.BasebandSignal(samples, 1000.0), schedule)
        assert multitx.misaligned(samples, schedule) == flagged
    with np.errstate(over="ignore"):
        assert flagged == (oracle_guard_core_power_ratio(samples, schedule)
                           > 0.25)
    assert segments.samples[1, 40] == samples[150]


def test_near_far_failure_and_mitigation(tdma_setup, chips10, rrc_taps):
    burst, three, config = tdma_setup
    schedule = replace(three, transmitter_count=2)
    near = flat_channel(40.0)
    far = flat_channel(80.0)

    def far_loss(park_mode):
        leakage = multitx.LeakageModel(parked_leakage_db=math.inf,
                                       inband_null_leakage_db=30.0)
        capture = multitx.compose_received([burst] * 2, [near, far], [0, 0],
                                           schedule,
                                           leak_gain=leakage.gain(park_mode))
        segments = multitx.segment_capture(capture, schedule)
        profile = sliding.measure_sliding(segments, chips10,
                                          rrc_taps, config, [0.0] * 2)[1]
        return profile["path_loss_db"]

    corrupted = far_loss(multitx.PARK_IN_BAND)
    clean = far_loss(multitx.PARK_OFF_BAND)
    assert abs(corrupted - 80.0) > 3.0
    assert abs(clean - 80.0) < 0.1


def test_leakage_monotonicity(tdma_setup, chips10, rrc_taps):
    # more attenuation on the parked transmitters never hurts the far one
    burst, schedule, config = tdma_setup
    near = flat_channel(40.0)
    far = flat_channel(80.0)
    third = flat_channel(60.0)
    errors = []
    for attenuation in (20.0, 30.0, 45.0, 60.0, 90.0):
        leakage = multitx.LeakageModel(inband_null_leakage_db=attenuation)
        capture = multitx.compose_received(
            [burst] * 3, [near, third, far], [0] * 3, schedule,
            leak_gain=leakage.gain(multitx.PARK_IN_BAND))
        segments = multitx.segment_capture(capture, schedule)
        profile = sliding.measure_sliding(segments, chips10,
                                          rrc_taps, config, [0.0] * 3)[2]
        errors.append(abs(profile["path_loss_db"] - 80.0))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
    assert errors[0] > errors[-1]


@pytest.mark.parametrize("leak_db", [math.inf, 30.0])
def test_slice_placement_matches_per_sample_mapping(leak_db):
    # slice placement must agree bit for bit with mapping every sample
    # through its perceived slot position, for 1 to 4 transmitters (one
    # owns the whole period and leaks nowhere); every transmitter takes
    # every shift, so the first slot's and the last slot's bursts wrap
    # across sample 0 as well as their slots, by either piece
    rate, slot = 1000.0, 100
    leak_gain = multitx.LeakageModel(
        parked_leakage_db=math.inf,
        inband_null_leakage_db=leak_db).gain(multitx.PARK_IN_BAND)
    shifts = [0, 3, -3, 7, -11, 25, -25, slot // 2, -slot // 2, 85, -85,
              slot, -slot + 5, 2 * slot - 2, -4 * slot - 1, 5 * 12 * slot + 13]
    wrapped = 0
    for count in (1, 2, 3, 4):
        period = count * slot
        for burst_len, guard in ((60, 20), (95, 30), (130, 10), (40, 0)):
            schedule = multitx.TdmaSchedule(count, slot, guard)
            for first in range(len(shifts)):
                offsets = [shifts[(first + i) % len(shifts)]
                           for i in range(count)]
                waveforms, channels = [], []
                for i, shift in enumerate(offsets):
                    rng_tx = np.random.default_rng(i)
                    waveforms.append(whole(pulse.BasebandSignal(
                        rng_tx.normal(size=burst_len)
                        + 1j * rng_tx.normal(size=burst_len), rate)))
                    channels.append(flat_channel(6.0 * i))
                    burst_lo = (i * slot - shift) % period + guard
                    wrapped += burst_lo < period < burst_lo + min(
                        burst_len, slot - guard)
                scene = (waveforms, channels, offsets, schedule)
                sliced = multitx.compose_received(*scene,
                                                  leak_gain=leak_gain).samples
                mapped = per_sample_compose(*scene, leak_gain)
                assert np.array_equal(sliced, mapped), \
                    (count, burst_len, guard, offsets)
    assert wrapped > 100


def test_compose_matches_tiled_leakage_and_complex_noise_oracle():
    # wrapped-slice leakage and per-rail noise must reproduce the capture
    # of a full-length leakage tile plus A + 1j * B noise byte for byte
    rate = 1000.0
    schedule = multitx.TdmaSchedule(3, 100, 20)
    period = schedule.period_samples
    rng = np.random.default_rng(23)
    cases = 0
    for leak_db in (math.inf, 30.0, 0.0):
        leak_gain = multitx.LeakageModel(
            parked_leakage_db=math.inf,
            inband_null_leakage_db=leak_db).gain(multitx.PARK_IN_BAND)
        for noise in (None, -ch.POWER_LIMIT_DB, -20.0):
            # bursts shorter than the slot, past its end, and longer than
            # the whole period
            for burst_len in (60, 95, 130, 700):
                shifts = rng.integers(-4 * period, 4 * period, size=3)
                waveforms = []
                for _ in shifts:
                    samples = rng.normal(size=burst_len) \
                        + 1j * rng.normal(size=burst_len)
                    waveforms.append(whole(pulse.BasebandSignal(samples, rate)))
                scene = (waveforms, [flat_channel(6.0 * i) for i in range(3)],
                         [int(shift) for shift in shifts], schedule)
                kwargs = dict(leak_gain=leak_gain, noise_power_dbfs=noise,
                              seed=cases)
                got = multitx.compose_received(*scene, **kwargs).samples
                expected = oracle_compose_received(*scene, **kwargs)
                assert got.tobytes() == expected.tobytes(), \
                    (leak_db, noise, burst_len, shifts)
                cases += 1
    assert cases == 36


@pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14, 2**14 + 1,
                               3 * 2**14 + 5, 327696])
def test_compose_draws_the_whole_in_phase_rail_then_the_quadrature_rail(n):
    # the noise is drawn in chunks, yet each rail must hold the values of
    # one standard_normal(n) call, in-phase first: every noisy campaign's
    # bytes rest on this order (327696 samples is a near-far capture)
    rng = np.random.default_rng(n)
    signal = pulse.BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n),
                                  1000.0)
    scene = ([whole(signal)], [flat_channel(0.0)], [0],
             multitx.TdmaSchedule(1, n, 0))
    got = multitx.compose_received(*scene, noise_power_dbfs=-17.0,
                                   seed=n + 3).samples
    expected = multitx.compose_received(*scene).samples
    draws = np.random.default_rng(n + 3)
    sigma = math.sqrt(10.0 ** (-17.0 / 10.0) / 2.0)
    expected.real += sigma * draws.standard_normal(n)
    expected.imag += sigma * draws.standard_normal(n)
    assert got.tobytes() == expected.tobytes()


@given(offsets=st.lists(st.integers(-60000, 60000), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8)
def test_compose_with_the_campaign_period_matches_the_oracles(
        tdma_setup, chips10, rrc_taps, offsets, seed):
    # campaign bursts at three powers through multi-tap channels, leaking
    # in band, at clock offsets up to a slot past either side: tiling
    # each channel output's steady state must give the oracles' bytes
    burst, schedule, _ = tdma_setup
    rng = np.random.default_rng(seed)
    leak_gain = multitx.LeakageModel(
        inband_null_leakage_db=30.0).gain(multitx.PARK_IN_BAND)
    waveforms, channels = [], []
    for i in range(len(offsets)):
        waveforms.append(
            replace(burst, samples=burst.samples * 10.0 ** (-i / 2.0)))
        tap_count = int(rng.integers(1, 7))
        lags = np.concatenate([[0], np.sort(rng.choice(
            np.arange(1, 1024), size=tap_count - 1, replace=False))])
        channels.append(ch.MultipathChannel(
            gains=rng.normal(size=tap_count) + 1j * rng.normal(size=tap_count),
            delays=lags * 60e-9))
    scene = (waveforms, channels, offsets, schedule)
    noisy = dict(leak_gain=leak_gain, noise_power_dbfs=-40.0, seed=seed)
    got = multitx.compose_received(*scene, **noisy).samples
    expected = oracle_compose_received(*scene, **noisy)
    assert got.tobytes() == expected.tobytes()
    got = multitx.compose_received(*scene, leak_gain=leak_gain).samples
    expected = per_sample_compose(*scene, leak_gain)
    assert got.tobytes() == expected.tobytes()


@given(slots=st.integers(1, 4), slot=st.integers(4, 120),
       guard_share=st.floats(0.0, 0.49), period=st.integers(1, 30),
       ramp=st.integers(0, 6), repetitions=st.integers(1, 6),
       offsets=st.lists(st.integers(-1000, 1000), min_size=4, max_size=4),
       leak_db=st.sampled_from([math.inf, 30.0, 0.0]),
       noise=st.sampled_from([None, -40.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_period_form_placement_matches_the_tiled_composer(
        slots, slot, guard_share, period, ramp, repetitions, offsets, leak_db,
        noise, seed):
    # bursts and leakage placed from each received waveform's period form
    # must write the capture of the composer that builds every waveform
    # whole and tiles its leakage over the capture, byte for byte: at
    # clock offsets that straddle sample 0 or spill into other slots,
    # with no leakage or in-band leakage, with and without noise, through
    # taps up to the guard late (and at most one period, for a burst in
    # period form), and for bursts too short to repeat anything between
    # their ramps, which modulate's form holds whole
    rng = np.random.default_rng(seed)

    def noise_samples(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    guard = int(guard_share * slot)
    schedule = multitx.TdmaSchedule(slots, slot, guard)
    leak_gain = multitx.LeakageModel(
        inband_null_leakage_db=leak_db).gain(multitx.PARK_IN_BAND)
    waveforms, channels = [], []
    for _ in range(slots):
        burst = period_form(np.concatenate([
            noise_samples(ramp), np.tile(noise_samples(period), repetitions),
            noise_samples(ramp)]), period, ramp)
        latest = min(guard, burst.period or guard)
        late = rng.choice(np.arange(1, latest + 1),
                          size=min(int(rng.integers(0, 4)), latest),
                          replace=False)
        waveforms.append(burst)
        channels.append(ch.MultipathChannel(
            gains=noise_samples(len(late) + 1),
            delays=np.concatenate([[0], np.sort(late)])))
    scene = (waveforms, channels, offsets[:slots], schedule)
    kwargs = dict(leak_gain=leak_gain, noise_power_dbfs=noise, seed=seed)
    got = multitx.compose_received(*scene, **kwargs).samples
    expected = oracle_compose_received(*scene, **kwargs)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def frequency_setup(guard_band_hz, carrier_count=1, **overrides):
    return sweep.FrequencySetup(
        carriers_hz=tuple(700e6 + 2e6 * k for k in range(carrier_count)),
        guard_band_hz=guard_band_hz, **overrides)


def test_frequency_plan_default_capacity():
    capacity = len(multitx.build_frequency_plan(
        frequency_setup(150e3), 100)[0].tone_offsets_hz)
    assert capacity in (5, 6)
    plans = multitx.build_frequency_plan(frequency_setup(150e3, 10), capacity)
    assert len(plans) == 1
    assert len(plans[0].tone_offsets_hz) == capacity


def test_frequency_plan_single_transmitter():
    plans = multitx.build_frequency_plan(frequency_setup(25e3, 2), 1)
    assert len(plans) == 1
    assert len(plans[0].tone_offsets_hz) == 1


def test_frequency_plan_multi_frame():
    # capacity 6 at 140 kHz guard in a 1 MHz band: 12 transmitters need 2 frames
    plans = multitx.build_frequency_plan(frequency_setup(140e3, 10), 12)
    assert len(plans) == 2
    assert [len(p.tone_offsets_hz) for p in plans] == [6, 6]


def test_frequency_plan_infeasible():
    with pytest.raises(ValueError, match="^guard_band_hz: .*capacity 0"):
        multitx.build_frequency_plan(frequency_setup(2e6), 2)
    with pytest.raises(ValueError, match="^guard_band_hz: must be positive"):
        multitx.build_frequency_plan(frequency_setup(0.0), 2)
    explicit = frequency_setup(25e3, tone_offsets_hz=(0.0, 400 * 1e6 / 4096))
    with pytest.raises(ValueError, match="^tone_offsets_hz: one tone per"):
        multitx.build_frequency_plan(explicit, 3)


@pytest.mark.parametrize("guard_band_hz", [1e-320, 1e-12, 1e-3])
def test_frequency_plan_packs_a_sub_bin_guard_one_bin_apart(guard_band_hz):
    [plan] = multitx.build_frequency_plan(frequency_setup(guard_band_hz), 3)
    bin_width = plan.sample_rate_hz / plan.fft_length
    # the lowest tone is the bin above -Nyquist, which aliases +Nyquist
    assert plan.tone_offsets_hz == tuple(k * bin_width for k in (-2047, -2046, -2045))
    assert multitx.build_frequency_plan(frequency_setup(100.0), 3) == [
        replace(plan, guard_band_hz=100.0)]


def test_frequency_plan_emits_valid_plans():
    plans = multitx.build_frequency_plan(frequency_setup(100e3, 10), 4)
    plan = plans[0]
    bin_width = plan.sample_rate_hz / plan.fft_length
    for tone in plan.tone_offsets_hz:
        assert abs(tone) < plan.sample_rate_hz / 2
        assert abs(tone / bin_width - round(tone / bin_width)) < 1e-6
    spacing = np.diff(np.sort(plan.tone_offsets_hz))
    assert np.all(spacing >= plan.guard_band_hz - 1e-9)


@given(setup=frequency_blocks(explicit_tones=False), count=st.integers(1, 40))
def test_frequency_plan_packing_property(setup, count):
    try:
        plans = multitx.build_frequency_plan(setup, count)
    except ValueError as exc:
        # only a guard band too wide for the band leaves no tone
        assert "capacity 0" in str(exc)
        assert setup.guard_band_hz > setup.sample_rate_hz / 2
        return
    capacity = len(plans[0].tone_offsets_hz)
    assert len(plans) == math.ceil(count / capacity)
    assert [len(p.tone_offsets_hz) for p in plans[:-1]] == [capacity] * (len(plans) - 1)
    assert sum(len(p.tone_offsets_hz) for p in plans) == count
    bin_width = setup.sample_rate_hz / setup.fft_length
    for plan in plans:
        tones = np.asarray(plan.tone_offsets_hz)
        bins = tones / bin_width
        assert np.all(np.abs(bins - np.round(bins)) < 1e-6)
        assert np.all(np.abs(tones) < setup.sample_rate_hz / 2)
        assert np.all(np.diff(tones) >= setup.guard_band_hz - 1e-6)
        # a frame is the block with its tones filled in, nothing else
        assert plan == replace(setup, tone_offsets_hz=plan.tone_offsets_hz)
        assert all(type(f) is float for f in plan.tone_offsets_hz)
    # transmitter k sends tone k % capacity of frame k // capacity
    flat = [f for plan in plans for f in plan.tone_offsets_hz]
    assert flat == [plans[k // capacity].tone_offsets_hz[k % capacity]
                    for k in range(count)]
    # the block round-trips through the strict loader, with the tones
    # left to the packer and with the packed tones written out
    explicit = plans[0]
    for block in (setup, explicit):
        doc = json.loads(json.dumps(schema.to_json(block)))
        assert schema.from_json(sweep.FrequencySetup, doc, "frequency") == block
    again = multitx.build_frequency_plan(explicit, capacity)
    assert len(again) == 1
    assert again == [explicit]
