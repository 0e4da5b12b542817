from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from chansounder import campaign as cp
from chansounder import channel as ch
from chansounder import schema, sweep
from chansounder.channel import EnvironmentModel
from chansounder.pulse import BasebandSignal

from helpers import (
    default_plan,
    oracle_bin_power,
    oracle_received_tone,
    oracle_sweep_rows,
    save_document,
    static_sweep_losses,
    use_oracle_sweep,
)

UNIT = ch.MultipathChannel(gains=[1.0], delays=[0.0])


def dft_bin_oracle(samples, length, bin_index):
    """Bin power straight from the DFT definition."""
    n = np.arange(length)
    basis = np.exp(-2j * np.pi * bin_index * n / length)
    return abs(np.sum(samples[:length] * basis) / length) ** 2


def unit_tone(frame, tone_offset):
    """exp(j*2*pi*tone_offset*t) over one step of frame, formed as
    sweep.unit_tones forms each tone of a plan, for any offset."""
    n = int(round(frame.step_duration_s * frame.sample_rate_hz))
    return np.exp(2j * np.pi * tone_offset * (np.arange(n) / frame.sample_rate_hz))


def tone_capture(frame, tone_offset, amplitude=1.0):
    """One step's samples of a tone of the given amplitude at zero
    carrier: the unit tone through a one-tap channel of that gain."""
    channel = ch.MultipathChannel(gains=[amplitude], delays=[0.0])
    tone = unit_tone(frame, tone_offset)
    return sweep.received_tone(channel, 0.0, tone_offset, tone,
                               np.empty_like(tone), np.empty_like(tone))


def steps(frame):
    """One noise seed per carrier step of frame."""
    return range(len(frame.carriers_hz))


@pytest.fixture(scope="module")
def plan():
    return default_plan()


def test_tone_dc(plan):
    tone = tone_capture(replace(plan, tone_offsets_hz=(0.0,)), 0.0, 0.7)
    npt.assert_allclose(tone, 0.7, atol=1e-15)


def test_tone_whole_cycles(plan):
    bin_width = plan.sample_rate_hz / plan.fft_length
    window = replace(plan, step_duration_s=plan.fft_length / plan.sample_rate_hz)
    tone = tone_capture(window, 3 * bin_width)
    # exactly three cycles: the first sample repeats after the window
    assert len(tone) == plan.fft_length
    assert tone[0] == pytest.approx(1.0)
    phase = np.angle(tone[-1] * np.conj(tone[0]))
    assert phase == pytest.approx(-2 * np.pi * 3 / plan.fft_length, abs=1e-9)


def test_tone_power(plan):
    tone = tone_capture(plan, 12500.0, 0.5)
    assert np.mean(np.abs(tone) ** 2) == pytest.approx(0.25, abs=1e-12)


def test_tone_alias_rejected(plan):
    with pytest.raises(ValueError, match=r"^tone_offsets_hz\[0\]: .*Nyquist"):
        replace(plan, tone_offsets_hz=(6e5,))


def test_bin_power_matches_dft_oracle(plan):
    tone_offset = plan.tone_offsets_hz[0]
    amplitude = 0.8
    tone = tone_capture(plan, tone_offset, amplitude)
    # bin_power overwrites its rows with their spectra: it reads a copy
    [[got]] = sweep.bin_power(tone[np.newaxis].copy(), plan, [tone_offset])
    oracle = dft_bin_oracle(tone, plan.fft_length,
                            plan.bin_index(tone_offset))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(amplitude**2, abs=1e-9)


def test_bin_power_zero_capture(plan):
    rows = np.zeros((1, plan.fft_length), dtype=np.complex128)
    assert sweep.bin_power(rows, plan, plan.tone_offsets_hz) == [[0.0]]


def test_bin_power_negative_offset_wraps():
    bin_width = 1e6 / 4096
    tone_offset = -200 * bin_width
    frame = sweep.FrequencySetup(carriers_hz=(700e6,),
                                 tone_offsets_hz=(tone_offset,))
    assert frame.bin_index(tone_offset) == 4096 - 200
    tone = tone_capture(frame, tone_offset, 0.6)
    assert sweep.bin_power(tone[np.newaxis], frame, [tone_offset]) \
        == [[pytest.approx(0.36, abs=1e-9)]]


def test_two_tones_stay_orthogonal(plan):
    bin_width = plan.sample_rate_hz / plan.fft_length
    f1 = plan.tone_offsets_hz[0]
    f2 = round((f1 + 150e3) / bin_width) * bin_width
    both = replace(plan, tone_offsets_hz=(f1, f2))
    strong = ch.MultipathChannel(gains=[1.0], delays=[0.0])
    weak = ch.MultipathChannel(gains=[0.5], delays=[0.0])
    alone_1, alone_2 = (replace(plan, tone_offsets_hz=(f,)) for f in (f1, f2))
    single_1 = sweep.compose_sweep_capture([strong], alone_1,
                                           sweep.unit_tones(alone_1),
                                           steps(both))
    single_2 = sweep.compose_sweep_capture([weak], alone_2,
                                           sweep.unit_tones(alone_2),
                                           steps(both))
    combined = sweep.compose_sweep_capture(
        [strong, weak], both, sweep.unit_tones(both), steps(both))
    # bin_power overwrites its rows with their spectra: each read gets
    # its own copy
    for tone, single in ((f1, single_1), (f2, single_2)):
        alone = sweep.bin_power(single.copy(), both, [tone])
        together = sweep.bin_power(combined.copy(), both, [tone])
        npt.assert_allclose(alone, together, rtol=0.0, atol=1e-9)


def test_sweep_flat_channel(plan):
    losses = static_sweep_losses(UNIT, plan)
    assert len(losses) == len(plan.carriers_hz)
    npt.assert_allclose(losses, 0.0, atol=1e-9)


def test_sweep_matches_analytic_response(plan):
    # the measured loss is tx power minus the bin power of a unit tone, so
    # it must track tx_power_db - 20*log10|H| step by step
    chan = ch.MultipathChannel(gains=[1.0, 1.0], delays=[0.0, 250e-9])
    losses = static_sweep_losses(chan, plan, 3.0)
    probe = np.asarray(plan.carriers_hz) + plan.tone_offsets_hz[0]
    oracle = 3.0 - 20 * np.log10(np.abs(ch.frequency_response(chan, probe)))
    npt.assert_allclose(losses, oracle, atol=0.05)


def test_sweep_selectivity_contrast(plan):
    near = ch.MultipathChannel(gains=[10 ** (-60 / 20.0)], delays=[0.0])
    far = ch.MultipathChannel(
        gains=[10 ** (-90 / 20.0), 0.9 * 10 ** (-90 / 20.0)],
        delays=[0.0, 250e-9])
    near_var = np.ptp(static_sweep_losses(near, plan))
    far_var = np.ptp(static_sweep_losses(far, plan))
    assert near_var <= 5.0
    assert far_var >= 15.0


def test_narrowband_losses_mark_empty_bins_and_keep_tone_order(plan):
    bin_width = plan.sample_rate_hz / plan.fft_length
    tones = (-300 * bin_width, 600 * bin_width)
    frame = replace(plan, tone_offsets_hz=tones)
    second = replace(plan, tone_offsets_hz=tones[1:])
    rows = sweep.compose_sweep_capture([UNIT], second,
                                       sweep.unit_tones(second), steps(frame))
    # only the second tone is on the air; read in reverse tone order
    quiet, loud = sweep.narrowband_losses(rows, frame, tones[::-1],
                                          [3.0, -2.0])[::-1]
    npt.assert_allclose(loud, 3.0, atol=1e-9)
    assert all(loss is None or loss > 250.0 for loss in quiet)


def test_mean_wideband_path_loss():
    # a frequency record's wideband loss is the mean, in dB, of its
    # narrowband losses
    scenario = cp.Scenario(
        mode="frequency",
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
                      cp.Transmitter("tx2", (30.0, 20.0, 3.7), tx_power_db=-4.0)),
        receiver_path=((2.0, 2.0, 0.9), (8.0, 2.0, 0.9)),
        environment=EnvironmentModel(reference_loss_db=38.0,
                                     path_loss_exponent=2.1,
                                     delay_spread_scale_s=2.5e-7,
                                     tap_count_range=(2, 8)),
        master_seed=3)
    for record in cp.run_campaign(scenario):
        values = record["narrowband_losses_db"]
        assert len(values) == 10
        assert record["wideband_path_loss_db"] == float(np.mean(values))
        assert min(values) <= record["wideband_path_loss_db"] <= max(values)


def test_plan_validation_errors(plan):
    # every check starts with its field, so a scenario names the path
    for change, message in [
            (dict(sample_rate_hz=-1e6), r"sample_rate_hz: -1000000.0 Hz is "
                                        r"outside \[1000, 1e\+09\] Hz$"),
            (dict(sample_rate_hz=0.0), "sample_rate_hz: 0.0 Hz is outside"),
            (dict(fft_length=0), r"fft_length: 0 is outside \[2, 4194304\]$"),
            (dict(fft_length=1), "fft_length: 1 is outside"),
            (dict(carriers_hz=(700e6, 7e9)),
             r"carriers_hz\[1\]: 7000000000.0 Hz is outside \[1e\+06, 6e\+09\] Hz$"),
            (dict(carriers_hz=()), "carriers_hz: need at least one carrier"),
            (dict(carriers_hz=(700e6, 702e6, 703e6)), "carriers_hz: .*uniform"),
            (dict(carriers_hz=(702e6, 700e6)), "carriers_hz: .*increasing"),
            (dict(step_duration_s=1e-3), "step_duration_s: .*FFT window"),
            (dict(guard_band_hz=-1.0), "guard_band_hz: -1.0 Hz is outside"),
            (dict(tone_offsets_hz=()), "tone_offsets_hz: need at least one tone"),
            (dict(tone_offsets_hz=(6e5,)), r"tone_offsets_hz\[0\]: .*Nyquist"),
            (dict(tone_offsets_hz=(0.0, 100e3)),
             r"tone_offsets_hz\[1\]: .*bin width"),
            (dict(tone_offsets_hz=(0.0, 10 * 1e6 / 4096)),
             "tone_offsets_hz: tones 0 and 1 .*guard band")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(plan, **change)


def random_sweep_channel(rng, max_taps=8):
    taps = int(rng.integers(1, max_taps + 1))
    delays = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e-6, taps - 1))])
    gains = rng.uniform(0.01, 1.0, taps) * np.exp(2j * np.pi * rng.uniform(size=taps))
    return ch.MultipathChannel(gains=gains, delays=delays)


def test_received_tone_bit_exact_against_per_tap_oracle(plan):
    short = replace(plan, sample_rate_hz=2e6, fft_length=2048,
                    step_duration_s=3e-3, tone_offsets_hz=(-40 * 2e6 / 2048,))
    rng = np.random.default_rng(2024)
    for p in (plan, short):
        bin_width = p.sample_rate_hz / p.fft_length
        for k in (1, -1, 37, -410, 1500, -1999):
            tone = k * bin_width
            unit = unit_tone(p, tone)
            for carrier in (700e6, 2.4e9, 5.8e9):
                chan = random_sweep_channel(rng)
                want = oracle_received_tone(chan, carrier, tone, p)
                # written in place: what out and scratch held before is
                # not read
                out = np.full(len(unit), np.nan + 1j * np.inf)
                got = sweep.received_tone(chan, carrier, tone, unit, out,
                                          out.copy())
                assert got is out
                assert np.array_equal(got, want)


def test_sweep_rows_equal_per_step_oracle_bit_for_bit(plan):
    # three tones through multipath, with and without noise: each row is
    # the capture that the per-step, per-tap oracle composes for its step
    bin_width = plan.sample_rate_hz / plan.fft_length
    three = replace(plan, tone_offsets_hz=tuple(
        k * bin_width for k in (-700, 102, 500)))
    units = sweep.unit_tones(three)
    rng = np.random.default_rng(77)
    for noise in (None, -30.0):
        channels = [random_sweep_channel(rng) for _ in three.tone_offsets_hz]
        seeds = [int(seed) for seed in rng.integers(0, 2**62, 10)]
        for count in (1, 3):
            first = replace(three,
                            tone_offsets_hz=three.tone_offsets_hz[:count])
            got = sweep.compose_sweep_capture(channels[:count], first,
                                              units[:count], seeds,
                                              noise_power_dbfs=noise)
            want = oracle_sweep_rows(channels[:count], first, units[:count],
                                     seeds, noise_power_dbfs=noise)
            # the oracle composes whole steps; each row is the first
            # FFT window of its step, noise included
            assert got.shape == (10, 4096)
            assert np.array_equal(got, want[:, :4096])


def test_bin_power_reads_several_tones_from_one_fft(plan):
    bin_width = plan.sample_rate_hz / plan.fft_length
    tones = [k * bin_width for k in (-700, 102, 500)]
    three = replace(plan, tone_offsets_hz=tuple(tones))
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(5, 5000)) + 1j * rng.normal(size=(5, 5000))
    # bin_power overwrites its rows with their spectra: each read gets
    # its own copy
    got = sweep.bin_power(rows.copy(), three, tones)
    assert len(got) == 5
    # the multi-row FFT reads each row's bins as a one-row FFT does
    assert got == [sweep.bin_power(row[np.newaxis].copy(), three, tones)[0]
                   for row in rows]
    for powers, row in zip(got, rows, strict=True):
        assert powers == [
            sweep.bin_power(row[np.newaxis].copy(), three, [f])[0][0]
            for f in tones]
        capture = BasebandSignal(samples=row, sample_rate=plan.sample_rate_hz)
        assert powers == oracle_bin_power(capture, three, tones)


@pytest.mark.parametrize("length, width", [
    (999, 999), (999, 1500),  # odd
    (1000, 1000), (1000, 5000),  # not a power of two
    (1024, 1024), (4096, 5000),  # a power of two
])
def test_bin_power_transforms_its_rows_in_place(length, width):
    # the FFT is taken in place over each row's first fft_length samples:
    # the same bits as an out-of-place FFT of a copy, with the window left
    # holding its spectrum and the samples past it untouched
    bin_width = 1e6 / length
    tones = tuple(k * bin_width for k in (-300, 40, 401))
    frame = sweep.FrequencySetup(carriers_hz=(700e6, 702e6, 704e6),
                                 fft_length=length, tone_offsets_hz=tones)
    rng = np.random.default_rng(length + width)
    rows = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
    before = rows.copy()
    spectra = np.fft.fft(rows[:, :length].copy(), axis=1)
    bins = [frame.bin_index(f) for f in tones]
    assert bins[0] == length - 300
    got = sweep.bin_power(rows, frame, tones)
    assert got == [[(abs(spectrum[k]) / length) ** 2 for k in bins]
                   for spectrum in spectra]
    assert np.array_equal(rows[:, :length], spectra)
    assert np.array_equal(rows[:, length:], before[:, length:])


def test_unit_tone_is_cached_read_only(plan, monkeypatch):
    # a campaign's unit tones are computed with its plan, read-only, and
    # the very same arrays serve every location
    scenario = cp.Scenario(
        mode="frequency",
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
                      cp.Transmitter("tx2", (30.0, 20.0, 3.7))),
        receiver_path=((2.0, 2.0, 0.9), (8.0, 2.0, 0.9), (14.0, 2.0, 0.9)),
        environment=EnvironmentModel(reference_loss_db=38.0,
                                     path_loss_exponent=2.1))
    [(frame, units)], _ = cp.prepare(scenario)
    t = np.arange(4096) / frame.sample_rate_hz
    # one row per tone, in the frame's order, each the unit tone bit for bit
    # over the first FFT window of a 5000-sample step
    assert units.shape == (len(frame.tone_offsets_hz), 4096)
    for tone_offset, tone in zip(frame.tone_offsets_hz, units, strict=True):
        assert not tone.flags.writeable
        with pytest.raises(ValueError):
            tone[0] = 0.0
        assert np.array_equal(tone, np.exp(2j * np.pi * tone_offset * t))
    reversed_tones = replace(frame, tone_offsets_hz=frame.tone_offsets_hz[::-1])
    assert np.array_equal(sweep.unit_tones(reversed_tones), units[::-1])
    seen = []
    compose = sweep.compose_sweep_capture

    def recording(channels, frame, units, seeds, **kwargs):
        seen.append(units)
        return compose(channels, frame, units, seeds, **kwargs)

    monkeypatch.setattr(sweep, "compose_sweep_capture", recording)
    cp.run_campaign(scenario)
    assert len(seen) == 3
    assert len({id(units) for units in seen}) == 1


def test_noisy_sweep_matches_oracle(plan, monkeypatch):
    bin_width = plan.sample_rate_hz / plan.fft_length
    two = replace(plan, tone_offsets_hz=(-300 * bin_width, 600 * bin_width))
    rng = np.random.default_rng(31)
    chan = random_sweep_channel(rng)

    def sound_all():
        return [static_sweep_losses(chan, two, 3.0, tone=tone, seed=17,
                                    **kwargs)
                for kwargs in (dict(noise_power_dbfs=-60.0), {})
                for tone in two.tone_offsets_hz]

    got = sound_all()
    use_oracle_sweep(monkeypatch)
    assert sweep.compose_sweep_capture is oracle_sweep_rows
    for mine, oracle in zip(got, sound_all(), strict=True):
        assert np.array_equal(mine, oracle)


def test_plan_json_roundtrip(tmp_path, plan):
    # a plan file is a frequency block, and a one-frame plan as it stands
    target = tmp_path / "plan.json"
    save_document(plan, target)
    loaded = schema.load(sweep.FrequencySetup, target)
    assert loaded == plan
    assert loaded.carriers_hz == sweep.FrequencySetup().carriers_hz
    assert loaded.tone_offsets_hz == (410 * 1e6 / 4096,)
