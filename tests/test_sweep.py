import numpy as np
import numpy.testing as npt
import pytest

from chansounder import channel as ch
from chansounder import schema, sweep
from chansounder.pulse import BasebandSignal

from helpers import (
    default_plan,
    oracle_bin_powers,
    oracle_received_tone,
    use_oracle_sweep,
)


def dft_bin_oracle(samples, length, bin_index):
    """Bin power straight from the DFT definition."""
    n = np.arange(length)
    basis = np.exp(-2j * np.pi * bin_index * n / length)
    return abs(np.sum(samples[:length] * basis) / length) ** 2


@pytest.fixture(scope="module")
def plan():
    return default_plan()


def test_tone_dc():
    tone = sweep.generate_tone(0.0, 1e-3, 1e6, amplitude=0.7)
    npt.assert_allclose(tone.samples, 0.7, atol=1e-15)


def test_tone_whole_cycles(plan):
    bin_width = plan.sample_rate / plan.fft_length
    tone = sweep.generate_tone(3 * bin_width, plan.fft_length / plan.sample_rate,
                               plan.sample_rate)
    # exactly three cycles: the first sample repeats after the window
    assert len(tone) == plan.fft_length
    assert tone.samples[0] == pytest.approx(1.0)
    phase = np.angle(tone.samples[-1] * np.conj(tone.samples[0]))
    assert phase == pytest.approx(-2 * np.pi * 3 / plan.fft_length, abs=1e-9)


def test_tone_power():
    tone = sweep.generate_tone(12500.0, 2e-3, 1e6, amplitude=0.5)
    assert np.mean(np.abs(tone.samples) ** 2) == pytest.approx(0.25, abs=1e-12)


def test_tone_alias_rejected():
    with pytest.raises(ValueError, match="alias"):
        sweep.generate_tone(6e5, 1e-3, 1e6)


def test_bin_power_matches_dft_oracle(plan):
    tone_offset = float(plan.tone_offsets[0])
    amplitude = 0.8
    tone = sweep.generate_tone(tone_offset, plan.step_duration,
                               plan.sample_rate, amplitude)
    got = sweep.bin_power(tone, plan, tone_offset)
    oracle = dft_bin_oracle(tone.samples, plan.fft_length,
                            plan.bin_index(tone_offset))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(amplitude**2, abs=1e-9)


def test_bin_power_zero_capture(plan):
    capture = BasebandSignal(np.zeros(plan.fft_length), plan.sample_rate)
    assert sweep.bin_power(capture, plan, float(plan.tone_offsets[0])) == 0.0


def test_bin_power_negative_offset_wraps():
    bin_width = 1e6 / 4096
    tone_offset = -200 * bin_width
    plan = sweep.SweepPlan(carrier_list=[700e6], tone_offsets=[tone_offset],
                           step_duration=5e-3, sample_rate=1e6,
                           fft_length=4096, guard_band=25e3)
    assert plan.bin_index(tone_offset) == 4096 - 200
    tone = sweep.generate_tone(tone_offset, 5e-3, 1e6, amplitude=0.6)
    assert sweep.bin_power(tone, plan, tone_offset) == pytest.approx(0.36, abs=1e-9)


def test_bin_power_rejects_unknown_tone(plan):
    tone = sweep.generate_tone(float(plan.tone_offsets[0]), plan.step_duration,
                               plan.sample_rate)
    with pytest.raises(ValueError, match="not part of the plan"):
        sweep.bin_power(tone, plan, 12345.0)


def test_bin_power_rejects_short_capture(plan):
    capture = BasebandSignal(np.zeros(plan.fft_length - 1), plan.sample_rate)
    with pytest.raises(ValueError, match="shorter"):
        sweep.bin_power(capture, plan, float(plan.tone_offsets[0]))


def test_two_tones_stay_orthogonal(plan):
    bin_width = plan.sample_rate / plan.fft_length
    f1 = float(plan.tone_offsets[0])
    f2 = round((f1 + 150e3) / bin_width) * bin_width
    both = sweep.SweepPlan(plan.carrier_list, [f1, f2], plan.step_duration,
                           plan.sample_rate, plan.fft_length, plan.guard_band)
    strong = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    weak = ch.MultipathChannel(gains=[0.5], delays=[0.0])
    single_1 = sweep.compose_sweep_capture([(f1, strong)], both, 0)
    single_2 = sweep.compose_sweep_capture([(f2, weak)], both, 0)
    combined = sweep.compose_sweep_capture(
        [(f1, strong), (f2, weak)], both, 0)
    for tone, single in ((f1, single_1), (f2, single_2)):
        alone = sweep.bin_power(single, both, tone)
        together = sweep.bin_power(combined, both, tone)
        assert abs(alone - together) < 1e-9


def test_sweep_flat_channel(plan):
    flat = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    losses = sweep.sweep_sound([flat] * plan.step_count, plan, 0.0, "tx1")
    npt.assert_allclose(losses.per_carrier_loss_db, 0.0, atol=1e-9)
    assert losses.transmitter_id == "tx1"


def test_sweep_matches_analytic_response(plan):
    # the measured loss is tx power minus the bin power of a unit tone, so
    # it must track tx_power_db - 20*log10|H| step by step
    chan = ch.MultipathChannel(gains=[1.0, 1.0], delays=[0.0, 250e-9])
    losses = sweep.sweep_sound([chan] * plan.step_count, plan, 3.0, "tx1")
    probe = plan.carrier_list + plan.tone_offsets[0]
    oracle = 3.0 - 20 * np.log10(np.abs(ch.frequency_response(chan, probe)))
    npt.assert_allclose(losses.per_carrier_loss_db, oracle, atol=0.05)


def test_sweep_selectivity_contrast(plan):
    near = ch.MultipathChannel(gains=[10 ** (-60 / 20.0)], delays=[0.0])
    far = ch.MultipathChannel(
        gains=[10 ** (-90 / 20.0), 0.9 * 10 ** (-90 / 20.0)],
        delays=[0.0, 250e-9])
    near_losses = sweep.sweep_sound([near] * plan.step_count, plan, 0.0, "near")
    far_losses = sweep.sweep_sound([far] * plan.step_count, plan, 0.0, "far")
    near_var = np.ptp(near_losses.per_carrier_loss_db)
    far_var = np.ptp(far_losses.per_carrier_loss_db)
    assert near_var <= 5.0
    assert far_var >= 15.0


def test_sweep_wrong_channel_count(plan):
    flat = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    with pytest.raises(ValueError, match="per carrier step"):
        sweep.sweep_sound([flat] * 3, plan, 0.0, "tx1")


def test_mean_wideband_path_loss():
    make = lambda values: sweep.NarrowbandLossSet(values, "tx", 0.0)
    assert sweep.mean_wideband_path_loss(make([80.0] * 10)) == pytest.approx(80.0)
    assert sweep.mean_wideband_path_loss(make([70.0, 90.0])) == pytest.approx(80.0)
    values = [72.0, 75.5, 80.25, 69.0, 71.0, 90.0, 85.5, 77.0, 74.25, 79.5]
    got = sweep.mean_wideband_path_loss(make(values))
    assert got == pytest.approx(sum(values) / len(values), abs=1e-12)
    assert min(values) <= got <= max(values)


def test_temporal_resolution(plan):
    assert sweep.temporal_resolution(plan) == pytest.approx(27.8e-9, abs=0.1e-9)
    two_step = sweep.SweepPlan(carrier_list=[100e6, 101e6],
                               tone_offsets=plan.tone_offsets,
                               step_duration=plan.step_duration,
                               sample_rate=plan.sample_rate,
                               fft_length=plan.fft_length,
                               guard_band=plan.guard_band)
    assert sweep.temporal_resolution(two_step) == pytest.approx(500e-9)
    doubled = sweep.SweepPlan(carrier_list=plan.carrier_list * 2,
                              tone_offsets=plan.tone_offsets,
                              step_duration=plan.step_duration,
                              sample_rate=plan.sample_rate,
                              fft_length=plan.fft_length,
                              guard_band=plan.guard_band)
    assert sweep.temporal_resolution(doubled) \
        == pytest.approx(sweep.temporal_resolution(plan) / 2)


def test_plan_validation_errors(plan):
    base = dict(carrier_list=plan.carrier_list, tone_offsets=plan.tone_offsets,
                step_duration=plan.step_duration, sample_rate=plan.sample_rate,
                fft_length=plan.fft_length, guard_band=plan.guard_band)
    bad = dict(base, tone_offsets=[6e5])
    with pytest.raises(ValueError, match="Nyquist"):
        sweep.SweepPlan(**bad)
    bad = dict(base, tone_offsets=[100e3])  # not on the 244.14 Hz grid
    with pytest.raises(ValueError, match="bin width"):
        sweep.SweepPlan(**bad)
    bin_width = plan.sample_rate / plan.fft_length
    bad = dict(base, tone_offsets=[0.0, 10 * bin_width])
    with pytest.raises(ValueError, match="guard band"):
        sweep.SweepPlan(**bad)
    bad = dict(base, carrier_list=[700e6, 702e6, 703e6])
    with pytest.raises(ValueError, match="uniform"):
        sweep.SweepPlan(**bad)
    bad = dict(base, step_duration=1e-3)  # under 4096 samples at 1 MHz
    with pytest.raises(ValueError, match="FFT window"):
        sweep.SweepPlan(**bad)


def random_sweep_channel(rng, max_taps=8):
    taps = int(rng.integers(1, max_taps + 1))
    delays = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e-6, taps - 1))])
    gains = rng.uniform(0.01, 1.0, taps) * np.exp(2j * np.pi * rng.uniform(size=taps))
    return ch.MultipathChannel(gains=gains, delays=delays)


def test_received_tone_bit_exact_against_per_tap_oracle(plan):
    short = sweep.SweepPlan(plan.carrier_list, [-40 * 2e6 / 2048], 3e-3, 2e6,
                            2048, plan.guard_band)
    rng = np.random.default_rng(2024)
    for p in (plan, short):
        bin_width = p.sample_rate / p.fft_length
        for k in (1, -1, 37, -410, 1500, -1999):
            tone = k * bin_width
            for carrier in (700e6, 2.4e9, 5.8e9):
                chan = random_sweep_channel(rng)
                amplitude = float(rng.uniform(0.1, 3.0))
                got = sweep.received_tone(chan, carrier, tone, p, amplitude)
                want = oracle_received_tone(chan, carrier, tone, p, amplitude)
                assert np.array_equal(got, want)


def test_bin_powers_equal_per_tone_bin_power(plan):
    bin_width = plan.sample_rate / plan.fft_length
    tones = [k * bin_width for k in (-700, 102, 500)]
    three = sweep.SweepPlan(plan.carrier_list, tones, plan.step_duration,
                            plan.sample_rate, plan.fft_length, plan.guard_band)
    rng = np.random.default_rng(8)
    for _ in range(5):
        samples = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        capture = BasebandSignal(samples=samples, sample_rate=plan.sample_rate)
        got = sweep.bin_powers(capture, three, tones)
        assert got == [sweep.bin_power(capture, three, f) for f in tones]
        assert got == oracle_bin_powers(capture, three, tones)
    with pytest.raises(ValueError, match="not part of the plan"):
        sweep.bin_powers(capture, three, [tones[0], 12345.0])


def test_unit_tone_is_cached_read_only(plan):
    tone = sweep._unit_tone(float(plan.tone_offsets[0]), 5000, plan.sample_rate)
    assert tone is sweep._unit_tone(float(plan.tone_offsets[0]), 5000,
                                    plan.sample_rate)
    assert not tone.flags.writeable
    with pytest.raises(ValueError):
        tone[0] = 0.0
    assert sweep._unit_tone.cache_info().maxsize is not None


def test_sweep_sound_with_noise_matches_oracle(plan, monkeypatch):
    bin_width = plan.sample_rate / plan.fft_length
    two = sweep.SweepPlan(plan.carrier_list, [-300 * bin_width, 600 * bin_width],
                          plan.step_duration, plan.sample_rate,
                          plan.fft_length, plan.guard_band)
    rng = np.random.default_rng(31)
    channels = [random_sweep_channel(rng) for _ in range(two.step_count)]

    def sound_all():
        return [sweep.sweep_sound(channels, two, 3.0, "tx",
                                  tone_offset=float(tone), seed=17,
                                  **kwargs).per_carrier_loss_db
                for kwargs in (dict(noise_power_dbfs=-60.0), {})
                for tone in two.tone_offsets]

    got = sound_all()
    use_oracle_sweep(monkeypatch)
    for mine, oracle in zip(got, sound_all(), strict=True):
        assert np.array_equal(mine, oracle)


def test_losses_json_roundtrip():
    losses = sweep.NarrowbandLossSet([72.0, 75.5, 80.25], "tx2", 97656.25)
    doc = sweep.losses_to_json(losses)
    assert doc["mean_path_loss_db"] == pytest.approx((72.0 + 75.5 + 80.25) / 3)
    back = sweep.losses_from_json(doc)
    npt.assert_array_equal(back.per_carrier_loss_db, losses.per_carrier_loss_db)
    assert back.transmitter_id == "tx2"
    assert back.tone_offset == 97656.25


def test_plan_json_roundtrip(tmp_path, plan):
    # a plan file is a frequency block; the plan is derived from it
    setup = sweep.FrequencySetup(tone_offsets_hz=tuple(plan.tone_offsets))
    target = tmp_path / "plan.json"
    schema.save(setup, target)
    loaded = schema.load(sweep.FrequencySetup, target)
    assert loaded == setup
    npt.assert_array_equal(default_plan().carrier_list, plan.carrier_list)
    npt.assert_array_equal(loaded.tone_offsets_hz, plan.tone_offsets)
    assert loaded.fft_length == plan.fft_length
    assert loaded.guard_band_hz == plan.guard_band
