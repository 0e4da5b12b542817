"""Acceptance suite: every criterion in one module, one PASS line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines appear; a
plain `pytest` run executes the same assertions. Criteria with runtime
budgets measure and enforce them.
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from chansounder import campaign as cp
from chansounder import channel as ch
from chansounder import multitx, sliding, sweep
from chansounder.channel import EnvironmentModel
from chansounder.pn import circular_correlate
from helpers import (
    add_noise,
    default_plan,
    measure_one,
    measured_correlation_gain,
    planted_capture,
    random_planted_channel,
    static_sweep_losses,
    tap_gains,
    tap_lags,
)

CHIP_PERIOD = sliding.SounderConfig().chip_period_s


def report(number, title, elapsed=None, detail=""):
    stamp = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {number:>2} {title}: PASS{stamp}{extra}")


def test_criterion_01_pn_correlation_identity(chips10):
    start = time.perf_counter()
    profile = circular_correlate(chips10, chips10.chips)
    assert profile[0].real == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(profile[1:], -1.0 / 1023, atol=1e-12)
    # exact in integer arithmetic before normalization
    ints = chips10.chips.astype(np.int64)
    assert all(int(np.dot(ints, np.roll(ints, -lag))) == -1
               for lag in range(1, 1023))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "PN correlation identity", elapsed)


def test_criterion_02_planted_channel_recovery(chips10, rrc_taps):
    start = time.perf_counter()
    config = sliding.SounderConfig(averaging_periods=2,
                                   detection_threshold_db=50.0)
    worst_mag_db = 0.0
    worst_phase_deg = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        planted, lags = random_planted_channel(rng, CHIP_PERIOD)
        capture = planted_capture(chips10, rrc_taps, planted, config)
        profile = measure_one(capture, chips10, rrc_taps, config)
        npt.assert_array_equal(tap_lags(profile), lags)
        ratio = tap_gains(profile) / planted.gains
        mag_err_db = np.max(np.abs(20 * np.log10(np.abs(ratio))))
        phase_err_deg = np.max(np.abs(np.degrees(np.angle(ratio))))
        assert mag_err_db <= 1.0
        assert phase_err_deg <= 5.0
        worst_mag_db = max(worst_mag_db, mag_err_db)
        worst_phase_deg = max(worst_phase_deg, phase_err_deg)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "planted-channel recovery", elapsed,
           f"worst {worst_mag_db:.2e} dB / {worst_phase_deg:.2e} deg")


def test_criterion_03_relative_dynamic_range(chips10, rrc_taps):
    start = time.perf_counter()
    config = sliding.SounderConfig(averaging_periods=10,
                                   detection_threshold_db=70.0)
    weak = 1e-3  # 60 dB below the strong tap
    planted = ch.MultipathChannel(gains=[1.0, weak],
                                  delays=[0.0, 9 * CHIP_PERIOD])
    capture = planted_capture(chips10, rrc_taps, planted, config)
    profile = measure_one(capture, chips10, rrc_taps, config)
    npt.assert_array_equal(tap_lags(profile), [0, 9])
    error_db = abs(20 * math.log10(abs(tap_gains(profile)[1]) / weak))
    assert error_db <= 1.0
    report(3, "60 dB relative dynamic range", time.perf_counter() - start,
           f"weak-tap error {error_db:.2e} dB")


def test_criterion_04_processing_gain(chips10):
    start = time.perf_counter()
    periods = 10
    expected = 10 * math.log10(1023) + 10 * math.log10(periods)
    gains = [measured_correlation_gain(chips10, periods, seed)
             for seed in range(200)]
    mean_gain = float(np.mean(gains))
    assert abs(mean_gain - expected) <= 1.0
    report(4, "processing gain", time.perf_counter() - start,
           f"measured {mean_gain:.2f} dB vs {expected:.2f} dB")


def test_criterion_05_rms_delay_spread_oracles():
    start = time.perf_counter()
    # two equal-power taps 120 ns apart: closed form gives 60 ns
    two_tap = sliding.rms_delay_spread([0, 2], [1.0, 1.0], CHIP_PERIOD)
    assert two_tap == pytest.approx(60e-9, rel=0.01)

    # exponential profile: moments via geometric sums
    ratio, count = 0.5, 10
    lags = np.arange(count)
    gains = np.sqrt(ratio ** lags)
    total = sum(ratio**k for k in range(count))
    mean = sum(k * ratio**k for k in range(count)) / total
    second = sum(k**2 * ratio**k for k in range(count)) / total
    expected = CHIP_PERIOD * math.sqrt(second - mean**2)
    got = sliding.rms_delay_spread(lags, gains, CHIP_PERIOD)
    assert got == pytest.approx(expected, rel=0.01)

    # the bundled synthetic scenario lands in the measured 60-80 ns scale
    scenario = cp.load_scenario("scenarios/indoor_wing_sliding.json")
    records = cp.run_campaign(scenario)
    spreads = [r["rms_delay_spread_s"] for r in records
               if r["rms_delay_spread_s"] is not None]
    mean_spread = float(np.mean(spreads))
    assert 60e-9 <= mean_spread <= 80e-9
    report(5, "RMS delay spread oracles", time.perf_counter() - start,
           f"fixture mean {mean_spread * 1e9:.1f} ns")


def test_criterion_06_frequency_oracle_agreement():
    start = time.perf_counter()
    plan = default_plan()
    tone = plan.tone_offsets_hz[0]
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        tap_count = int(rng.integers(1, 7))
        delays = np.concatenate(
            [[0.0], np.sort(rng.uniform(30e-9, 600e-9, tap_count - 1))])
        gains = (rng.uniform(0.05, 1.0, tap_count)
                 * np.exp(1j * rng.uniform(0, 2 * np.pi, tap_count)))
        chan = ch.MultipathChannel(gains=gains, delays=delays)
        losses = static_sweep_losses(chan, plan)
        oracle = -20 * np.log10(np.abs(ch.frequency_response(
            chan, np.asarray(plan.carriers_hz) + tone)))
        worst = max(worst, float(np.max(np.abs(losses - oracle))))
        assert worst <= 0.05
    # delay resolution of the swept band: 1 / (2 (N - 1) carrier spacing)
    carriers = plan.carriers_hz
    resolution = 1.0 / (2.0 * (len(carriers) - 1) * (carriers[1] - carriers[0]))
    assert resolution == pytest.approx(27.8e-9, abs=0.1e-9)
    report(6, "frequency-domain oracle agreement", time.perf_counter() - start,
           f"worst {worst:.2e} dB, resolution {resolution * 1e9:.2f} ns")


def test_criterion_07_frequency_selectivity_contrast():
    start = time.perf_counter()
    plan = default_plan()
    tone = plan.tone_offsets_hz[0]
    near = ch.MultipathChannel(gains=[10 ** (-60 / 20.0)], delays=[0.0])
    far = ch.MultipathChannel(
        gains=[10 ** (-90 / 20.0), 0.9 * 10 ** (-90 / 20.0)],
        delays=[0.0, 250e-9])
    results = {}
    for name, chan in (("near", near), ("far", far)):
        losses = static_sweep_losses(chan, plan)
        oracle = -20 * np.log10(np.abs(ch.frequency_response(
            chan, np.asarray(plan.carriers_hz) + tone)))
        npt.assert_allclose(losses, oracle, atol=0.05)
        results[name] = float(np.ptp(losses))
    assert results["near"] <= 5.0
    assert results["far"] >= 15.0
    report(7, "frequency-selectivity contrast", time.perf_counter() - start,
           f"near {results['near']:.2f} dB vs far {results['far']:.2f} dB")


def _near_far_scenario(park_mode):
    # deterministic single-tap channels: near at 1 m (40 dB),
    # far at 100 m (80 dB), a 40 dB level difference at the receiver
    return cp.Scenario(
        mode="sliding",
        transmitters=(cp.Transmitter("near", (0.0, 0.0, 0.0)),
                      cp.Transmitter("far", (0.0, 100.0, 0.0))),
        receiver_path=((1.0, 0.0, 0.0),),
        environment=EnvironmentModel(reference_loss_db=40.0,
                                     path_loss_exponent=2.0,
                                     delay_spread_scale_s=0.0,
                                     tap_count_range=(1, 1)),
        master_seed=3,
        leakage=multitx.LeakageModel(parked_leakage_db=math.inf,
                                     inband_null_leakage_db=30.0),
        park_mode=park_mode)


def test_criterion_08_multi_tx_isolation_and_near_far():
    start = time.perf_counter()
    environment = EnvironmentModel(reference_loss_db=40.0,
                                   path_loss_exponent=2.4,
                                   delay_spread_scale_s=8e-8,
                                   tap_count_range=(2, 5))
    transmitters = (cp.Transmitter("tx1", (0.0, 0.0, 1.0)),
                    cp.Transmitter("tx2", (20.0, 8.0, 2.0)),
                    cp.Transmitter("tx3", (40.0, 0.0, 1.5)))
    path = tuple((3.0 + 2.5 * i, 2.0, 1.2) for i in range(4))
    full = cp.run_campaign(cp.Scenario(
        mode="sliding", transmitters=transmitters, receiver_path=path,
        environment=environment, master_seed=11))
    for keep in transmitters:
        alone = cp.run_campaign(cp.Scenario(
            mode="sliding", transmitters=(keep,), receiver_path=path,
            environment=environment, master_seed=11))
        matched = [r for r in full if r["transmitter_id"] == keep.id]
        assert matched == alone

    far_true = 80.0
    in_band = cp.run_campaign(_near_far_scenario(multitx.PARK_IN_BAND))
    far_corrupted = [r for r in in_band if r["transmitter_id"] == "far"][0]
    error_in_band = abs(far_corrupted["wideband_path_loss_db"] - far_true)
    assert error_in_band > 3.0

    off_band = cp.run_campaign(_near_far_scenario(multitx.PARK_OFF_BAND))
    far_clean = [r for r in off_band if r["transmitter_id"] == "far"][0]
    error_off_band = abs(far_clean["wideband_path_loss_db"] - far_true)
    assert error_off_band < 0.1
    report(8, "multi-tx isolation and near-far", time.perf_counter() - start,
           f"in-band error {error_in_band:.1f} dB, "
           f"off-band {error_off_band:.2e} dB")


def _snake_path(count, width=40.0, pitch=2.0):
    positions = []
    row = 0
    while len(positions) < count:
        xs = np.arange(1.0, width, 2.0)
        if row % 2:
            xs = xs[::-1]
        for x in xs:
            positions.append((float(x), 2.0 + pitch * row, 1.2))
            if len(positions) == count:
                break
        row += 1
    return tuple(positions)


def test_criterion_09_campaign_scale(tmp_path):
    environment = EnvironmentModel(reference_loss_db=40.0,
                                   path_loss_exponent=2.8,
                                   delay_spread_scale_s=9e-8,
                                   tap_count_range=(3, 6),
                                   wall_loss_db=3.0, wall_grid_spacing_m=6.0)
    sliding_scenario = cp.Scenario(
        mode="sliding",
        transmitters=(cp.Transmitter("tx1", (2.0, 2.0, 1.1)),
                      cp.Transmitter("tx2", (19.0, 6.0, 2.4)),
                      cp.Transmitter("tx3", (36.0, 2.0, 1.2))),
        receiver_path=_snake_path(200),
        environment=environment, master_seed=42)
    start = time.perf_counter()
    records = cp.run_campaign(sliding_scenario)
    cp.export_records(records, tmp_path / "records.jsonl")
    heatmaps = []
    for tx in sliding_scenario.transmitters:
        path = tmp_path / f"heatmap_{tx.id}.csv"
        cp.export_heatmap(records, tx.id, path)
        heatmaps.append(path)
    sliding_elapsed = time.perf_counter() - start
    assert sliding_elapsed < 300.0
    assert len(records) == 600
    assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 600
    assert len(heatmaps) == 3
    for path in heatmaps:
        assert len(path.read_text().splitlines()) == 201

    frequency_scenario = cp.Scenario(
        mode="frequency",
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
                      cp.Transmitter("tx2", (30.0, 20.0, 3.7)),),
        receiver_path=_snake_path(50, width=30.0, pitch=4.0),
        environment=EnvironmentModel(reference_loss_db=38.0,
                                     path_loss_exponent=2.1,
                                     delay_spread_scale_s=2.5e-7,
                                     tap_count_range=(2, 8)),
        master_seed=43)
    start = time.perf_counter()
    frequency_records = cp.run_campaign(frequency_scenario)
    frequency_elapsed = time.perf_counter() - start
    assert frequency_elapsed < 60.0
    assert len(frequency_records) == 100
    assert all(len(r["narrowband_losses_db"]) == 10 for r in frequency_records)
    report(9, "campaign scale", sliding_elapsed + frequency_elapsed,
           f"sliding {sliding_elapsed:.1f} s, frequency {frequency_elapsed:.1f} s")


def test_criterion_10_determinism(tmp_path, chips10, rrc_taps):
    start = time.perf_counter()
    # sounding chain: identical bytes for identical seeds
    config = sliding.SounderConfig(averaging_periods=2,
                                   detection_threshold_db=50.0)
    rng = np.random.default_rng(5)
    planted, _ = random_planted_channel(rng, CHIP_PERIOD)
    capture = planted_capture(chips10, rrc_taps, planted, config)
    noisy = add_noise(capture, -30.0, seed=77)
    one = measure_one(noisy, chips10, rrc_taps, config)
    rng = np.random.default_rng(5)
    planted_again, _ = random_planted_channel(rng, CHIP_PERIOD)
    capture_again = planted_capture(chips10, rrc_taps, planted_again, config)
    noisy_again = add_noise(capture_again, -30.0, seed=77)
    two = measure_one(noisy_again, chips10, rrc_taps, config)
    assert json.dumps(one) == json.dumps(two)

    # campaigns: byte-identical exports across runs, both modes
    for mode in ("sliding", "frequency"):
        scenario = cp.Scenario(
            mode=mode,
            transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.0)),
                          cp.Transmitter("tx2", (15.0, 5.0, 2.0))),
            receiver_path=tuple((2.0 + i, 3.0, 1.2) for i in range(3)),
            environment=EnvironmentModel(reference_loss_db=40.0,
                                         path_loss_exponent=2.2,
                                         delay_spread_scale_s=7e-8,
                                         tap_count_range=(2, 5)),
            master_seed=9, noise_power_dbfs=-60.0)
        paths = []
        for run in range(2):
            target = tmp_path / f"{mode}_{run}.jsonl"
            cp.export_records(cp.run_campaign(scenario), target)
            paths.append(target)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # frequency sweep: bit-identical loss sets
    plan = default_plan()
    chan = ch.MultipathChannel(gains=[1.0, 0.5], delays=[0.0, 300e-9])
    losses_one = static_sweep_losses(chan, plan, noise_power_dbfs=-50.0, seed=4)
    losses_two = static_sweep_losses(chan, plan, noise_power_dbfs=-50.0, seed=4)
    npt.assert_array_equal(losses_one, losses_two)
    report(10, "determinism", time.perf_counter() - start)
