import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import resource
import shutil
import signal
import subprocess
import sys
import tracemalloc
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import campaign as cp
from chansounder import channel as ch
from chansounder import cli, multitx, pulse, schema, sliding, sweep
from chansounder.channel import EnvironmentModel
from chansounder.cli import build_parser, main

from helpers import (assert_no_child_left, failing_channel_draw, received,
                     save_document, write_iq)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_pn(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen-pn", "--degree", "10",
                             "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "chips.txt").read_text().splitlines()
    assert len(lines) == 1023
    assert set(lines) <= {"1", "-1"}


def test_gen_pn_json_mode(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen-pn", "--json",
                           "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["period_length"] == 1023


def test_gen_pn_bad_polynomial(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen-pn", "--degree", "4",
                           "--polynomial", "0x15", "--out-dir", str(tmp_path))
    assert code == 2
    assert "not primitive" in err


def test_unknown_flag(capsys):
    assert main(["gen-pn", "--frobnicate"]) != 0


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHANSOUNDER_OUT_DIR", str(tmp_path / "from_env"))
    code, _, _ = run_cli(capsys, "gen-pn", "--degree", "6")
    assert code == 0
    assert (tmp_path / "from_env" / "chips.txt").exists()


def sliding_capture_file(directory):
    """The default burst of 12 PN periods through taps at lags 0 and 3,
    written as directory/capture.iq with its sidecar."""
    config = sliding.SounderConfig()
    chips, taps = sliding.reference(config)
    planted = ch.MultipathChannel(
        gains=[1.0, 0.25], delays=[0.0, 3 * config.chip_period_s])
    tx = pulse.modulate(chips, 12, taps, config.chip_period_s)
    capture_path = directory / "capture.iq"
    write_iq(received(tx, planted), capture_path)
    return capture_path


def test_sound_sliding_roundtrip(tmp_path, capsys):
    capture_path = sliding_capture_file(tmp_path)
    code, _, err = run_cli(capsys, "sound-sliding",
                           "--capture", str(capture_path),
                           "--out-dir", str(tmp_path))
    assert code == 0, err
    doc = json.loads((tmp_path / "profile.json").read_text())
    lags = [t["lag"] for t in doc["taps"]]
    assert lags == [0, 3]
    assert doc["path_loss_db"] == pytest.approx(
        -10 * np.log10(1.0 + 0.25**2), abs=0.05)


def sweep_capture_files(tmp_path):
    """A default plan file and one flat-channel capture file per carrier
    step."""
    plan_path = tmp_path / "plan.json"
    save_document(sweep.FrequencySetup(), plan_path)
    [frame] = multitx.build_frequency_plan(sweep.FrequencySetup(), 1)
    chan = ch.MultipathChannel(gains=[0.5], delays=[0.0])
    steps = range(len(frame.carriers_hz))
    rows = sweep.compose_sweep_capture([(frame.tone_offsets_hz[0], chan)],
                                       frame, sweep.unit_tones(frame), steps)
    capture_paths = []
    for step, row in zip(steps, rows):
        path = tmp_path / f"step{step}.iq"
        write_iq(pulse.BasebandSignal(row, frame.sample_rate_hz), path)
        capture_paths.append(str(path))
    return plan_path, capture_paths


def test_sound_freq_roundtrip(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert code == 0, err
    doc = json.loads((tmp_path / "losses.json").read_text())
    assert len(doc["per_carrier_loss_db"]) == 10
    np.testing.assert_allclose(doc["per_carrier_loss_db"],
                               -20 * np.log10(0.5), atol=0.01)
    assert doc["mean_path_loss_db"] == pytest.approx(-20 * np.log10(0.5),
                                                     abs=0.01)


def test_sound_freq_holds_one_step_capture_at_a_time(tmp_path, capsys):
    # each step keeps only its first FFT window; views of every step's
    # whole capture once kept all ten captures alive until the last read
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    length = 1 << 17
    for path in capture_paths:
        window = pulse.read_iq(path).samples
        write_iq(pulse.BasebandSignal(np.resize(window, length), 1e6), path)
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                               "--out-dir", str(tmp_path), *capture_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    capture_bytes = 16 * length
    assert peak < 5 * capture_bytes, peak / capture_bytes


def test_sound_freq_wrong_capture_count(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    save_document(sweep.FrequencySetup(), plan_path)
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), "only_one.iq")
    assert code == 2
    assert "per carrier step" in err


def test_sound_freq_rejects_contradicting_sidecar(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    sidecar = tmp_path / "step3.iq.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(doc, format="ci16_le")))

    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert code == 2
    assert "format" in err and len(err.strip().splitlines()) == 1


def edit_sidecars(capture_paths, **change):
    for path in capture_paths:
        sidecar = pathlib.Path(f"{path}.json")
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()),
                                           **change)))


def test_sound_freq_rejects_a_sidecar_rate_that_is_not_the_plans(tmp_path,
                                                                  capsys):
    # every step's sidecar at twice the plan's rate once gave the losses
    # of the unedited captures
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    edit_sidecars(capture_paths, sample_rate_hz=2e6, origin_time_s=1e12)
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert (code, err) == (2, f"ValueError: {capture_paths[0]}.json: "
                              f"sample_rate_hz: 2000000.0 Hz is not the "
                              f"1000000.0 Hz of the plan\n")
    assert not (tmp_path / "losses.json").exists()


def test_sound_freq_does_not_read_the_origin_time(tmp_path, capsys):
    # a time shift leaves the power in a bin-centered tone's bin as it is
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    losses = []
    for origin in (None, 1e12):
        if origin is not None:
            edit_sidecars(capture_paths, origin_time_s=origin)
        code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                               "--out-dir", str(tmp_path), *capture_paths)
        assert (code, err) == (0, "")
        losses.append(json.loads((tmp_path / "losses.json").read_text()))
    assert losses[0] == losses[1]


def test_sound_freq_names_sample_count_for_a_short_capture(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    setup = sweep.FrequencySetup()
    short = pulse.BasebandSignal(np.ones(setup.fft_length - 1),
                                 setup.sample_rate_hz)
    write_iq(short, capture_paths[4])
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert (code, err) == (2, f"ValueError: {capture_paths[4]}.json: "
                              f"sample_count: 4095 is below the plan's "
                              f"fft_length 4096\n")


def _tone_off_the_plan_by_one_bin():
    setup = sweep.FrequencySetup()
    [frame] = multitx.build_frequency_plan(setup, 1)
    return frame.tone_offsets_hz[0] + setup.sample_rate_hz / setup.fft_length


@pytest.mark.parametrize("tone", [1234.5, 6e5, _tone_off_the_plan_by_one_bin()],
                         ids=["off-grid", "out-of-band", "one-bin-off"])
def test_sound_freq_names_the_tone_offset_flag(tmp_path, capsys, tone):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--tone-offset", repr(tone), "--out-dir",
                           str(tmp_path), *capture_paths)
    assert (code, err) == (2, f"ValueError: --tone-offset: tone offset "
                              f"{tone} Hz is not part of the plan\n")


def scenario_file(tmp_path, locations=2):
    scenario = cp.Scenario(
        mode="sliding",
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.0)),
                      cp.Transmitter("tx2", (18.0, 6.0, 2.0))),
        receiver_path=tuple((2.0 + i, 3.0, 1.2) for i in range(locations)),
        environment=EnvironmentModel(reference_loss_db=40.0,
                                     path_loss_exponent=2.2,
                                     delay_spread_scale_s=7e-8,
                                     tap_count_range=(2, 4)),
        master_seed=5)
    path = tmp_path / "scenario.json"
    cp.save_scenario(scenario, path)
    return path


def test_campaign_and_reproducibility(tmp_path, capsys):
    scenario_path = scenario_file(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, _, err = run_cli(capsys, "campaign",
                               "--scenario", str(scenario_path),
                               "--seed", "7", "--out-dir", str(out))
        assert code == 0, err
    names = ["records.jsonl", "heatmap_tx1.csv", "heatmap_tx2.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert len((out_a / "records.jsonl").read_text().splitlines()) == 4
    produced = sorted(p.name for p in out_a.iterdir())
    assert produced == sorted(names)


def sharded_scenario_file(tmp_path, mode):
    """Five locations of a sliding scenario with clock offsets, in-band
    leakage and noise, or of a noisy frequency scenario."""
    scenario = cp.load_scenario(scenario_file(tmp_path, locations=5))
    if mode == "sliding":
        scenario = dataclasses.replace(
            scenario, clocks=cp.ClockSetup(offset_std_s=0.3e-6),
            leakage=multitx.LeakageModel(inband_null_leakage_db=30.0),
            park_mode=multitx.PARK_IN_BAND, noise_power_dbfs=-85.0)
    else:
        scenario = dataclasses.replace(scenario, mode="frequency",
                                       noise_power_dbfs=-90.0)
    path = tmp_path / f"{mode}.json"
    cp.save_scenario(scenario, path)
    return path


@pytest.mark.parametrize("mode", ["sliding", "frequency"])
def test_campaign_outputs_identical_at_any_worker_count(tmp_path, capsys,
                                                        monkeypatch, mode):
    scenario_path = sharded_scenario_file(tmp_path, mode)
    outputs = {}
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(cli, "_campaign_workers", lambda: workers)
        out = tmp_path / f"workers{workers}"
        code, _, err = run_cli(capsys, "campaign", "--scenario",
                               str(scenario_path), "--out-dir", str(out))
        assert code == 0, err
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert_no_child_left()
    assert sorted(outputs[1]) == ["heatmap_tx1.csv", "heatmap_tx2.csv",
                                  "records.jsonl"]
    for workers, files in outputs.items():
        assert files == outputs[1], workers


def test_worker_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    scenario_path = sharded_scenario_file(tmp_path, "sliding")
    last = cp.load_scenario(scenario_path).receiver_path[-1]
    failing_channel_draw(monkeypatch, last,
                         ValueError("environment: no channel at the last location"))
    monkeypatch.setattr(cli, "_campaign_workers", lambda: 2)
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(scenario_path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == "ValueError: environment: no channel at the last location\n"
    assert not (tmp_path / "out" / "records.jsonl").exists()
    assert_no_child_left()


def test_key_error_is_a_program_fault_not_an_input_error(tmp_path,
                                                         monkeypatch):
    # no input reaches a KeyError, so one shows its traceback instead of
    # exiting 2 as if the scenario were at fault
    def broken(args):
        raise KeyError("lookup")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    with pytest.raises(KeyError, match="lookup"):
        main(["validate", "--scenario", str(scenario_file(tmp_path))])


def test_campaign_workers_follow_the_cpus_up_to_two(monkeypatch):
    # two is the most campaign processes measured; more CPUs add none
    for cpus, workers in ((1, 1), (2, 2), (64, 2)):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        assert cli._campaign_workers() == workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert cli._campaign_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._campaign_workers() == 2


def test_validate_good_scenario(tmp_path, capsys):
    scenario_path = scenario_file(tmp_path)
    code, out, _ = run_cli(capsys, "validate", "--scenario",
                           str(scenario_path), "--json",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_guard_band_violation(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["mode"] = "frequency"
    bin_width = 1e6 / 4096
    doc["frequency"]["tone_offsets_hz"] = [0.0, 4 * bin_width]  # under guard
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(bad),
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "guard band" in err


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate",
                           "--scenario", str(tmp_path / "missing.json"),
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "missing.json" in err


# frequency-block values in range of their type but not of the sweep
FREQUENCY_FIELD_CASES = [
    ("frequency", "fft_length", 0, "frequency.fft_length"),
    ("frequency", "sample_rate_hz", -1e6, "frequency.sample_rate_hz"),
    ("frequency", "step_duration_s", 1e-6, "frequency.step_duration_s"),
    ("frequency", "carriers_hz", [702e6, 700e6], "frequency.carriers_hz"),
    # 100 kHz is not on the 1e6 / 4096 Hz bin grid
    ("frequency", "tone_offsets_hz", [100e3, 0.0],
     "frequency.tone_offsets_hz[0]"),
    ("frequency", "tone_offsets_hz", [0.0, 4 * 1e6 / 4096],
     "frequency.tone_offsets_hz"),
]


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("where, key, value, name", [
    pytest.param("sliding", "averging_periods", 3, "sliding.averging_periods",
                 id="typo"),
    pytest.param(None, "schema_version", 99, "schema_version", id="version"),
    pytest.param("leakage", "park_mode", "sideways", "leakage.park_mode",
                 id="park_mode"),
    # a clock spread that is silently ignored: negative, or next to
    # explicit offsets
    pytest.param("clocks", "offset_std_s", -1e-6, "clocks.offset_std_s",
                 id="clocks.offset_std_s=-1e-06"),
    pytest.param(None, "clocks", {"tx_offsets_s": [0.0, 0.0],
                                  "offset_std_s": 5e-3},
                 "clocks.offset_std_s", id="clocks.offset_std_s=5e-3-with-tx_offsets_s"),
    # values in range of their type but not of the sounder
    *[pytest.param(*case, id=f"{case[-1]}={case[2]!r}") for case in [
        ("sliding", "averaging_periods", 0, "sliding.averaging_periods"),
        ("sliding", "rolloff", 1.5, "sliding.rolloff"),
        ("sliding", "chip_period_s", -6e-8, "sliding.chip_period_s"),
        ("sliding", "detection_threshold_db", 0.0,
         "sliding.detection_threshold_db"),
        ("sliding", "span_symbols", 5, "sliding.span_symbols"),
        ("sliding", "samples_per_symbol", 1, "sliding.samples_per_symbol"),
        ("sliding", "pn_degree", 40, "sliding.pn_degree"),
        ("sliding", "polynomial", 3, "sliding.polynomial"),
        ("schedule", "guard_fraction", 0.5, "schedule.guard_fraction"),
        ("schedule", "guard_fraction", 0.6, "schedule.guard_fraction"),
        ("schedule", "guard_fraction", -0.1, "schedule.guard_fraction"),
        ("schedule", "slot_length_s", 0.0, "schedule.slot_length_s"),
        ("clocks", "tx_offsets_s", [True, False], "clocks.tx_offsets_s[0]"),
        ("environment", "tap_count_range", [3.5, 6],
         "environment.tap_count_range[0]"),
        # 0 once divided by zero counting walls, and -1 passed
        ("environment", "wall_grid_spacing_m", 0.0,
         "environment.wall_grid_spacing_m"),
        ("environment", "wall_grid_spacing_m", -1.0,
         "environment.wall_grid_spacing_m"),
        ("transmitters", "position_m", ["a", "b", "c"],
         "transmitters[0].position_m[0]"),
        (None, "receiver_path_m", [[2.0, 3.0, 1.2], [3.0, 3.0]],
         "receiver_path_m[1]"),
        # powers whose linear amplitude overflows or underflows a float
        ("transmitters", "tx_power_db", 1e12, "transmitters[0].tx_power_db"),
        ("transmitters", "tx_power_db", -1e12, "transmitters[0].tx_power_db"),
        ("leakage", "parked_leakage_db", -1.0, "leakage.parked_leakage_db"),
        ("leakage", "inband_null_leakage_db", -1.0,
         "leakage.inband_null_leakage_db"),
        # JSON's NaN and Infinity literals, which range checks let through
        ("sliding", "chip_period_s", math.nan, "sliding.chip_period_s"),
        ("sliding", "chip_period_s", math.inf, "sliding.chip_period_s"),
        ("sliding", "detection_threshold_db", math.nan,
         "sliding.detection_threshold_db"),
        ("sliding", "detection_threshold_db", -math.inf,
         "sliding.detection_threshold_db"),
        ("environment", "path_loss_exponent", math.nan,
         "environment.path_loss_exponent"),
        (None, "noise_power_dbfs", math.nan, "noise_power_dbfs"),
        (None, "noise_power_dbfs", math.inf, "noise_power_dbfs"),
        # and at any depth of the geo passthrough, which no type checks
        (None, "geo", [{"lat": math.nan}, None], "geo[0].lat"),
        (None, "geo", [None, [1.0, {"alt": -math.inf}]], "geo[1][1].alt"),
        (None, "geo", [math.inf, None], "geo[0]"),
        # the frequency block is checked field by field even where the
        # mode never reads it
        *FREQUENCY_FIELD_CASES,
        # and, checked, must keep its defaults in a sliding scenario
        ("frequency", "fft_length", 2048, "frequency")]],
])
def test_strict_scenario_schema_exits_2(tmp_path, capsys, command, where,
                                        key, value, name):
    doc = json.loads(scenario_file(tmp_path).read_text())
    target = doc[where] if where else doc
    (target[0] if where == "transmitters" else target)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, "--scenario", str(bad),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"ValueError: {name}: ")
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("key, value, name", [
    pytest.param(*case[1:], id=f"{case[-1]}={case[2]!r}")
    for case in FREQUENCY_FIELD_CASES])
def test_frequency_scenario_field_errors_exit_2(tmp_path, capsys, command,
                                                key, value, name):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["mode"] = "frequency"
    doc["frequency"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, "--scenario", str(bad),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"ValueError: {name}: ")
    assert not (tmp_path / "out" / "records.jsonl").exists()


BUNDLED = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("changes, block", [
    # clock offsets and a slot that no burst fits, none of which a
    # frequency campaign reads: the first unread block is named
    ({"clocks": {"offset_std_s": 5e-3, "rx_offset_s": 1.0},
      "schedule": {"slot_length_s": 1e-9}}, "schedule"),
    ({"sliding": {"averaging_periods": 3}}, "sliding"),
    ({"schedule": {"guard_fraction": 0.1}}, "schedule"),
    ({"clocks": {"rx_offset_s": 1.0}}, "clocks"),
    ({"leakage": {"inband_null_leakage_db": 20.0}}, "leakage"),
    ({"leakage": {"park_mode": "in_band"}}, "leakage"),
], ids=["found-probe", "sliding", "schedule", "clocks", "leakage",
        "park_mode"])
def test_frequency_scenario_rejects_blocks_it_never_reads(
        tmp_path, capsys, command, changes, block):
    doc = json.loads((BUNDLED / "courtyard_frequency.json").read_text())
    for name, fields in changes.items():
        doc[name].update(fields)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, "--scenario", str(bad),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == f"ValueError: {block}: not read by a frequency scenario\n"
    assert not (tmp_path / "out" / "records.jsonl").exists()


def cut_bundled(name):
    """A bundled scenario's document, cut to two locations."""
    doc = json.loads((BUNDLED / f"{name}.json").read_text())
    doc["receiver_path_m"] = doc["receiver_path_m"][:2]
    return doc


def bundled_edit(tmp_path, name, edit):
    """A bundled scenario cut to two locations, changed by edit(doc)."""
    doc = cut_bundled(name)
    edit(doc)
    path = tmp_path / f"edited_{name}.json"
    path.write_text(json.dumps(doc))
    return path


def edit_sites(value, path=()):
    """Every number, null and list of a scenario document, each with the
    edits that may replace it: numbers and nulls by 0, -1, 1e-12, 1e12,
    or 3.04e3 or 3.1e3, which straddle the noise and received-power
    ceilings (3030-3083 dB), lists by the empty or the reversed list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from edit_sites(item, path + (key,))
    elif isinstance(value, list):
        yield path, (lambda items: [], lambda items: items[::-1])
        for k, item in enumerate(value):
            yield from edit_sites(item, path + (k,))
    elif value is None or (isinstance(value, (int, float))
                           and not isinstance(value, bool)):
        yield path, tuple(lambda _, v=v: v
                          for v in (0, -1, 1e-12, 1e12, 3.04e3, 3.1e3))


MUTABLE = {name: (cut_bundled(name), list(edit_sites(cut_bundled(name))))
           for name in ("indoor_wing_sliding", "courtyard_frequency")}
# "<Error>: <dotted.field>: ...", the field like environment.x or
# transmitters[0].position_m[1]
ONE_LINE_ERROR = re.compile(r"\w+: [A-Za-z_]\w*(\[\d+\])*(\.\w+(\[\d+\])*)*: .*\n")


def apply_edit(doc, path, edit):
    """Replace the value at path in doc by edit(value)."""
    try:  # an earlier edit may have emptied the site's list
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = edit(parent[path[-1]])
    except (IndexError, KeyError, TypeError):
        pass


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario cut to two locations, with one or two edits."""
    doc, sites = MUTABLE[draw(st.sampled_from(sorted(MUTABLE)))]
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path, edits = draw(st.sampled_from(sites))
        apply_edit(doc, path, draw(st.sampled_from(edits)))
    return doc


@given(doc=mutated_scenarios())
@settings(max_examples=200)
def test_validate_exits_0_or_2_with_one_line_naming_a_field(
        tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    stderr = io.StringIO()
    # a warning would reach a real stderr; under pytest it is recorded
    with contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--scenario", str(path)])
    assert caught == []
    assert code in (0, 2)
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        assert ONE_LINE_ERROR.fullmatch(stderr.getvalue())


def test_sub_bin_guard_band_packs_tones_one_bin_apart(tmp_path, capsys):
    path = bundled_edit(tmp_path, "courtyard_frequency", lambda doc: doc[
        "frequency"].update(guard_band_hz=1e-12))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 0, err
    [(frame, _)] = cp.prepare(cp.load_scenario(path))
    bin_width = frame.sample_rate_hz / frame.fft_length
    assert np.diff(frame.tone_offsets_hz).tolist() == [bin_width]


def set_environment(**fields):
    return lambda doc: doc["environment"].update(fields)


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("name, edit, field, loss", [
    ("indoor_wing_sliding", set_environment(reference_loss_db=-1e12),
     "environment.reference_loss_db", "-1e+12 dB"),
    ("courtyard_frequency", set_environment(reference_loss_db=-1e12),
     "environment.reference_loss_db", "-1e+12 dB"),
    ("indoor_wing_sliding", set_environment(path_loss_exponent=1e12),
     "environment.path_loss_exponent", "-1e+13 dB"),
    ("courtyard_frequency", set_environment(path_loss_exponent=1e12),
     "environment.path_loss_exponent", "dB"),
    # in range by itself, but 0.1 m from the transmitter the distance
    # term's -28 dB tips the power over; the position was once named
    ("indoor_wing_sliding", set_environment(reference_loss_db=-3070.0),
     "environment.reference_loss_db", "-3098 dB"),
    # 1.7e11 walls of 3 dB between the pair
    ("indoor_wing_sliding",
     lambda doc: doc["transmitters"][0]["position_m"].__setitem__(0, 1e12),
     "transmitters[0].position_m", "5e+11 dB"),
    ("indoor_wing_sliding",
     lambda doc: doc["receiver_path_m"][1].__setitem__(1, -1e12),
     "receiver_path_m[1]", "5e+11 dB"),
    # more walls between the pair than a float counts
    ("indoor_wing_sliding",
     lambda doc: (doc["receiver_path_m"][1].__setitem__(1, -1e10),
                  doc["environment"].update(wall_grid_spacing_m=1e-300)),
     "receiver_path_m[1]", "inf dB"),
], ids=["reference-sliding", "reference-frequency", "exponent-sliding",
        "exponent-frequency", "reference-near-transmitter",
        "transmitter-position", "receiver-position", "uncountable-walls"])
def test_path_loss_outside_float_range_exits_2(tmp_path, capsys, command,
                                               name, edit, field, loss):
    path = bundled_edit(tmp_path, name, edit)
    code, _, err = run_cli(capsys, command, "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"ValueError: {field}: the path loss from "
                          f"transmitter 'tx1' to receiver_path_m[")
    assert f"{loss}, whose linear power" in err
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_coinciding_positions_exit_2_naming_the_location(tmp_path, capsys):
    path = bundled_edit(tmp_path, "indoor_wing_sliding", lambda doc: doc[
        "receiver_path_m"].__setitem__(1, doc["transmitters"][2]["position_m"]))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 2
    assert err == ("ValueError: receiver_path_m[1]: coincides with "
                   "transmitters[2].position_m\n")


def run_cli_limited(*argv, address_space=2 << 30):
    """Run the CLI in a child process whose address space is capped before
    numpy loads, so a runaway allocation fails there instead of
    exhausting the host."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, "
            f"{address_space}))\n"
            "from chansounder.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_delay_spread_beyond_pn_period_exits_2(tmp_path, capsys):
    # a 7 s spread once asked apply_channel for 16 GiB
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        set_environment(delay_spread_scale_s=7.0))
    expected = ("ValueError: environment.delay_spread_scale_s: 7.0 s is not "
                "below the 6.138e-05 s PN period, the unambiguous delay "
                "range\n")
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, err) == (2, expected)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("change, field, samples", [
    # 6.7e7 samples once asked for 2.98 GiB, 6.7e19 overran numpy's
    # largest dimension, and a guard fraction near 1/2 for 10.7 TiB
    ({"slot_length_s": 1.0}, "slot_length_s", "6.66667e+07"),
    ({"slot_length_s": 1e12}, "slot_length_s", "6.66667e+19"),
    ({"slot_length_s": 1e301}, "slot_length_s", "inf"),
    ({"guard_fraction": 0.4999999}, "guard_fraction", "2.4576e+11"),
], ids=["one-second", "1e12-seconds", "overflowing", "guard-near-half"])
def test_oversized_slot_exits_2_before_allocating(tmp_path, capsys, change,
                                                  field, samples):
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        lambda doc: doc["schedule"].update(change))
    expected = (f"ValueError: schedule.{field}: a slot of {samples} samples "
                f"is above the {multitx.MAX_SLOT_SAMPLES}-sample limit\n")
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, err) == (2, expected)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("change, field, samples", [
    # a 5e9-sample unit tone once made validate ask numpy for 80 GB
    ({"sample_rate_hz": 1e12}, "step_duration_s", "5e+09"),
    ({"step_duration_s": 1e12}, "step_duration_s", "1e+18"),
    ({"step_duration_s": 1e301, "sample_rate_hz": 1e301}, "step_duration_s",
     "inf"),
], ids=["rate-1e12", "step-1e12", "overflowing"])
def test_oversized_carrier_step_exits_2_before_allocating(tmp_path, change,
                                                          field, samples):
    path = bundled_edit(tmp_path, "courtyard_frequency",
                        lambda doc: doc["frequency"].update(change))
    expected = (f"ValueError: frequency.{field}: a carrier step of {samples} "
                f"samples is above the {multitx.MAX_SLOT_SAMPLES}-sample "
                f"slot limit\n")
    for argv in (["validate"], ["campaign", "--out-dir", str(tmp_path / "out")]):
        child = run_cli_limited(*argv, "--scenario", str(path))
        assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("change, field, periods, samples", [
    # 100002 periods once made validate allocate a 1.52 GiB burst
    ({"averaging_periods": 100000}, "averaging_periods", 100002, 409208232),
    # one 2^20 - 1 chip period fits the slot limit, three do not
    ({"pn_degree": 20, "polynomial": (1 << 20) | 0b1001}, "pn_degree", 3,
     12582948),
])
def test_oversized_burst_exits_2_before_allocating(tmp_path, change, field,
                                                   periods, samples):
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        lambda doc: doc["sliding"].update(change))
    expected = (f"ValueError: sliding.{field}: a burst of {periods} PN "
                f"periods is {samples} samples, above the "
                f"{multitx.MAX_SLOT_SAMPLES}-sample slot limit\n")
    for argv in (["validate"], ["campaign", "--out-dir", str(tmp_path / "out")]):
        child = run_cli_limited(*argv, "--scenario", str(path))
        assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("change, field, taps", [
    # 24001 taps once made design_rrc ask for 2.15 GiB, 400001 for 596 GiB
    ({"samples_per_symbol": 2000}, "samples_per_symbol", 24001),
    ({"span_symbols": 100000}, "span_symbols", 400001),
    # 257 samples per symbol are too many at the shortest span, 4 symbols
    ({"samples_per_symbol": 257, "span_symbols": 4}, "samples_per_symbol",
     1029),
    ({"samples_per_symbol": 8, "span_symbols": 130}, "span_symbols", 1041),
], ids=["sps-2000", "span-100000", "sps-257-at-span-4", "span-130-at-sps-8"])
def test_oversized_filter_exits_2_before_allocating(tmp_path, change, field,
                                                    taps):
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        lambda doc: doc["sliding"].update(change))
    message = (f"{field}: a filter of span_symbols * samples_per_symbol + 1 "
               f"= {taps} taps is above the {pulse.MAX_FILTER_TAPS}-tap "
               f"limit\n")
    for argv in (["validate"], ["campaign", "--out-dir", str(tmp_path / "out")]):
        child = run_cli_limited(*argv, "--scenario", str(path),
                                address_space=1 << 30)
        assert (child.returncode, child.stderr) == (
            2, f"ValueError: sliding.{message}")
    assert not (tmp_path / "out" / "records.jsonl").exists()
    flags = {"samples_per_symbol": "--sps", "span_symbols": "--span"}
    argv = [option for name, value in change.items()
            for option in (flags[name], str(value))]
    child = run_cli_limited("sound-sliding", "--capture",
                            str(sliding_capture_file(tmp_path)), *argv,
                            "--out-dir", str(tmp_path / "out"),
                            address_space=1 << 30)
    assert (child.returncode, child.stderr) == (2, f"ValueError: {message}")
    assert not (tmp_path / "out" / "profile.json").exists()


def test_longest_filter_is_accepted():
    # the bound admits the longest filter, at the shortest span
    config = sliding.SounderConfig(span_symbols=4, samples_per_symbol=256)
    assert config.span_symbols * config.samples_per_symbol + 1 \
        == pulse.MAX_FILTER_TAPS


def test_drawn_tap_beyond_pn_period_exits_2(tmp_path, capsys):
    # the spread is below the period, but one drawn delay is not
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["environment"]["delay_spread_scale_s"] = 6e-5
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 0, err
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(
        "ValueError: environment.delay_spread_scale_s: the channel drawn for "
        "transmitter 'tx2' at receiver_path_m[0] has a tap ")
    assert err.endswith(" s late, not below the 6.138e-05 s PN period\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_near_float_limit_path_loss_runs_without_warnings(tmp_path):
    # a -3000 dB reference loss is in range and gives taps near 1e150; the
    # timing search's phase scores once overflowed on them (a
    # RuntimeWarning on stderr, then a phase picked from inf/nan scores)
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        set_environment(reference_loss_db=-3000.0))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    records = [json.loads(line) for line in
               (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
    assert len(records) == 6
    for record in records:
        assert record["flags"] == []
        assert -3100.0 < record["wideband_path_loss_db"] < -2900.0


def test_overflowing_channel_output_exits_2_with_one_stderr_line(tmp_path):
    # each tap of every channel output would overflow to inf or NaN; the
    # received power is rejected before any channel is drawn, and numpy
    # prints no warning ahead of the one line (the capture's own check,
    # made by the slot powers, once reported it)
    def loud(doc):
        doc["environment"]["reference_loss_db"] = -200.0
        for tx in doc["transmitters"]:
            tx["tx_power_db"] = 6100.0

    path = bundled_edit(tmp_path, "indoor_wing_sliding", loud)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, "ValueError: transmitters[0].tx_power_db: 6100 dB less the -228 "
           "dB path loss to receiver_path_m[0] is 6328 dB, whose power "
           "summed over the 163848-sample capture overflows a float\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


def strict_json(text):
    """The JSON document text, read by a reader that rejects NaN and
    Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def strict_records(path):
    """Every line of a records.jsonl, each read by strict_json."""
    return [strict_json(line) for line in path.read_text().splitlines()]


def set_tx_power(db):
    def edit(doc):
        for tx in doc["transmitters"]:
            tx["tx_power_db"] = db
    return edit


@pytest.mark.parametrize("command", ["validate", "campaign"])
def test_overflowing_received_power_exits_2_naming_tx_power(tmp_path,
                                                            command):
    # the slot power sums of the capture once overflowed: campaign exited
    # 0 with numpy warnings and wrote -Infinity and NaN into the records
    path = bundled_edit(tmp_path, "indoor_wing_sliding", set_tx_power(3200.0))
    child = run_cli_limited(command, "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, "ValueError: transmitters[0].tx_power_db: 3200 dB less the 12 "
           "dB path loss to receiver_path_m[0] is 3188 dB, whose power "
           "summed over the 163848-sample capture overflows a float\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_loud_transmitters_below_the_ceiling_write_strict_json(tmp_path):
    path = bundled_edit(tmp_path, "indoor_wing_sliding", set_tx_power(3000.0))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    records = strict_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 6
    for record in records:
        assert record["flags"] == []


def set_noise_power(dbfs):
    return lambda doc: doc.update(noise_power_dbfs=dbfs)


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("name, dbfs, samples", [
    ("indoor_wing_sliding", 3100.0, 163848),
    ("indoor_wing_sliding", 3080.0, 163848),
    ("courtyard_frequency", 3100.0, 5000)])
def test_overflowing_noise_power_exits_2_naming_it(tmp_path, command, name,
                                                   dbfs, samples):
    # 10 ** (3100 / 10) once ended the campaign in an OverflowError
    # traceback from the noise draw; at 3080 dBFS a sliding campaign
    # exited 0 after RuntimeWarnings from slot power ratios of inf / inf
    path = bundled_edit(tmp_path, name, set_noise_power(dbfs))
    child = run_cli_limited(command, "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, f"ValueError: noise_power_dbfs: {dbfs:g} dBFS summed over the "
           f"{samples}-sample capture overflows a float\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("name, dbfs", [("indoor_wing_sliding", 3030.0),
                                        ("courtyard_frequency", 3045.0)])
def test_loud_noise_below_the_ceiling_writes_strict_json(tmp_path, name, dbfs):
    # the ceilings are 3030.4 dBFS over the sliding capture and 3045.6
    # dBFS over one carrier step
    path = bundled_edit(tmp_path, name, set_noise_power(dbfs))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    assert len(strict_records(tmp_path / "out" / "records.jsonl")) \
        == 2 * len(cut_bundled(name)["transmitters"])


def run_cli_forked(*argv, address_space=2 << 30, seconds=60):
    """cli.main in a forked child, its address space capped at
    address_space bytes above what it inherits and its run at seconds:
    the exit code, and stderr with any warning or traceback written
    there."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            inherited = int(pathlib.Path("/proc/self/statm").read_text()
                            .split()[0]) * os.sysconf("SC_PAGE_SIZE")
            limit = inherited + address_space
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.alarm(seconds)
            with os.fdopen(write_fd, "w") as sys.stderr, \
                    open(os.devnull, "w") as sys.stdout:
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = main(list(argv))
                    for warning in caught:
                        print(warnings.formatwarning(
                            warning.message, warning.category,
                            warning.filename, warning.lineno),
                            file=sys.stderr)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(code)  # never the rest of the test session
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        stderr = pipe.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), stderr


@given(doc=mutated_scenarios())
@settings(max_examples=120)
def test_campaign_exits_0_or_2_with_one_line_naming_a_field(
        tmp_path_factory, doc):
    # each campaign runs in its own capped child, one at a time: strict
    # JSON records and nothing on stderr, or one line naming the field
    directory = tmp_path_factory.getbasetemp() / "mutated-campaign"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    path = directory / "mutated.json"
    path.write_text(json.dumps(doc))
    code, stderr = run_cli_forked("campaign", "--scenario", str(path),
                                  "--out-dir", str(directory / "out"))
    assert code in (0, 2), stderr
    if code == 2:
        assert ONE_LINE_ERROR.fullmatch(stderr), stderr
        assert not (directory / "out" / "records.jsonl").exists()
        return
    assert stderr == ""
    records = strict_records(directory / "out" / "records.jsonl")
    assert len(records) == len(doc["receiver_path_m"]) \
        * len(doc["transmitters"])


def test_far_position_exits_2_with_one_stderr_line(tmp_path):
    # the distance's dot product overflows to inf; numpy once printed its
    # RuntimeWarning and source line ahead of the one-line error
    path = bundled_edit(tmp_path, "indoor_wing_sliding", lambda doc: doc[
        "transmitters"][0]["position_m"].__setitem__(0, 1e200))
    child = run_cli_limited("validate", "--scenario", str(path))
    assert child.returncode == 2
    assert child.stderr.count("\n") == 1
    assert child.stderr.startswith(
        "ValueError: transmitters[0].position_m: the path loss from "
        "transmitter 'tx1' to receiver_path_m[0] is inf dB")


def test_sound_freq_rejects_a_plan_by_field(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    doc = json.loads(plan_path.read_text())
    for key, value in (("fft_length", 0), ("sample_rate_hz", -1e6),
                       ("tone_offsets_hz", [100e3])):
        plan_path.write_text(json.dumps(dict(doc, **{key: value})))
        code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                               "--out-dir", str(tmp_path), *capture_paths)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"ValueError: {key}")


def test_sound_freq_reproduces_campaign_losses(tmp_path, capsys, monkeypatch):
    # the captures a campaign composes for one location, written to
    # files: sound-freq must read from them the campaign's records
    scenario = cp.load_scenario(sharded_scenario_file(tmp_path, "frequency"))
    scenario = dataclasses.replace(
        scenario, receiver_path=scenario.receiver_path[3:4],
        transmitters=(scenario.transmitters[0],
                      dataclasses.replace(scenario.transmitters[1],
                                          tx_power_db=-7.5)))
    [(frame, _)] = cp.prepare(scenario)
    compose = sweep.compose_sweep_capture
    paths = []

    def compose_and_write(entries, frame, units, seeds, **kwargs):
        rows = compose(entries, frame, units, seeds, **kwargs)
        # the file holds float32 I/Q, so the campaign reads what the files
        # will hold
        rows = rows.astype(np.complex64).astype(np.complex128)
        for step, row in enumerate(rows):
            paths.append(str(tmp_path / f"step{step}.iq"))
            write_iq(pulse.BasebandSignal(row, frame.sample_rate_hz), paths[-1])
        return rows

    monkeypatch.setattr(sweep, "compose_sweep_capture", compose_and_write)
    records = cp.run_campaign(scenario)
    assert len(paths) == len(frame.carriers_hz)
    plan_path = tmp_path / "plan.json"
    save_document(frame, plan_path)
    for tx, tone, record in zip(scenario.transmitters, frame.tone_offsets_hz,
                                records, strict=True):
        out = tmp_path / tx.id
        code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                               "--tone-offset", repr(tone),
                               "--tx-power-db", repr(tx.tx_power_db),
                               "--transmitter-id", tx.id,
                               "--out-dir", str(out), *paths)
        assert code == 0, err
        doc = json.loads((out / "losses.json").read_text())
        assert doc == {"transmitter_id": tx.id, "tone_offset_hz": tone,
                       "per_carrier_loss_db": list(record["narrowband_losses_db"]),
                       "mean_path_loss_db": record["wideband_path_loss_db"]}
        assert record["tone_offset_hz"] == tone


def test_sound_freq_rejects_misspelt_plan_file(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    doc = json.loads(plan_path.read_text())
    plan_path.write_text(json.dumps(dict(doc, fft_lenght=8192,
                                         fft_length=4096.7)))
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert code == 2
    assert err.strip() == "ValueError: fft_lenght: unknown field"
    del doc["fft_length"]
    plan_path.write_text(json.dumps(dict(doc, fft_length=4096.7)))
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert code == 2
    assert err.startswith("ValueError: fft_length: expected int")


@pytest.mark.parametrize("change, name", [
    ({"format": None}, "format: required field is missing"),
    ({"sampel_rate_hz": 1e6}, "sampel_rate_hz: unknown field"),
    ({"sample_rate_hz": "1e6"}, "sample_rate_hz: expected float"),
    ({"sample_count": 8.0}, "sample_count: expected int"),
], ids=["no-format", "misspelt", "rate-as-text", "count-as-float"])
def test_strict_sidecar_exits_2(tmp_path, capsys, change, name):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    sidecar = tmp_path / "step3.iq.json"
    doc = json.loads(sidecar.read_text())
    doc.update(change)
    doc = {key: value for key, value in doc.items() if value is not None}
    sidecar.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert f"step3.iq.json: {name}" in err
    code, _, err = run_cli(capsys, "sound-sliding", "--capture",
                           str(tmp_path / "step3.iq"), "--out-dir",
                           str(tmp_path))
    assert code == 2
    assert f"step3.iq.json: {name}" in err


def test_sound_sliding_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["sound-sliding", "--capture", "x.iq"])
    settings = {f.name: getattr(args, f.name)
                for f in dataclasses.fields(sliding.SounderConfig)}
    assert sliding.SounderConfig(**settings) == sliding.SounderConfig()


SIDECAR_FIELDS = ("format", "sample_rate_hz", "origin_time_s", "sample_count")


SCALES = {"half": 0.5, "twice": 2}


@st.composite
def sidecar_edits(draw):
    """One or two edits of a capture's sidecar: a field removed (None),
    or a number replaced by 0, -1, 1e-12 or 1e12, or scaled by one half
    or two."""
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(SIDECAR_FIELDS))
        values = [None] if name == "format" else \
            [None, 0, -1, 1e-12, 1e12, *SCALES]
        edits.append((name, draw(st.sampled_from(values))))
    return edits


def edited_sidecar(doc, edits):
    doc = dict(doc)
    for name, value in edits:
        if value is None:
            doc.pop(name, None)
        elif value in SCALES and name in doc:
            # an integer field stays an integer
            doc[name] = type(doc[name])(doc[name] * SCALES[value])
        elif value not in SCALES:
            doc[name] = value
    return doc


def run_sound_sliding(capture_path, out_dir):
    """cli.main sound-sliding on a capture: its exit code and stderr, with
    any warning recorded instead of printed."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sound-sliding", "--capture", str(capture_path),
                     "--out-dir", str(out_dir)])
    assert caught == []
    return code, stderr.getvalue()


def sidecar_error(capture_path, field):
    """The one stderr line that names a sidecar field."""
    return re.compile(rf"ValueError: {re.escape(str(capture_path))}\.json: "
                      rf"(?:{field}): .*\n")


@given(edits=sidecar_edits())
@settings(max_examples=100)
def test_sound_sliding_sidecar_exits_0_or_2_naming_a_field(
        tmp_path_factory, edits):
    directory = tmp_path_factory.getbasetemp() / "sidecar"
    capture_path = directory / "capture.iq"
    if not capture_path.exists():
        directory.mkdir(exist_ok=True)
        sliding_capture_file(directory)
        pathlib.Path(f"{capture_path}.original").write_text(
            pathlib.Path(f"{capture_path}.json").read_text())
    doc = json.loads(pathlib.Path(f"{capture_path}.original").read_text())
    pathlib.Path(f"{capture_path}.json").write_text(
        json.dumps(edited_sidecar(doc, edits)))
    out = directory / "out"
    (out / "profile.json").unlink(missing_ok=True)
    code, err = run_sound_sliding(capture_path, out)
    assert code in (0, 2)
    if code == 0:
        assert err == ""
        assert (out / "profile.json").exists()
    else:
        assert sidecar_error(capture_path, "|".join(SIDECAR_FIELDS)) \
            .fullmatch(err)
        assert not (out / "profile.json").exists()


def run_sound_freq(plan_path, capture_paths, out_dir, *flags):
    """cli.main sound-freq on a plan and its step captures: its exit code
    and stderr, with any warning recorded instead of printed."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sound-freq", "--plan", str(plan_path), "--out-dir",
                     str(out_dir), *flags, *capture_paths])
    assert caught == []
    return code, stderr.getvalue()


@given(edits=sidecar_edits(),
       steps=st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True)
       | st.just(list(range(10))))
@settings(max_examples=100)
def test_sound_freq_sidecar_exits_0_or_2_naming_a_field(
        tmp_path_factory, edits, steps):
    # the same edits on the sidecars of one, two or every step capture:
    # the losses of the unedited captures where only origin_time_s, which
    # sound-freq does not read, was edited, else one line naming the
    # field of an edited sidecar
    directory = tmp_path_factory.getbasetemp() / "freq-sidecar"
    out = directory / "out"
    if not directory.exists():
        directory.mkdir()
        plan_path, capture_paths = sweep_capture_files(directory)
        assert run_sound_freq(plan_path, capture_paths, out) == (0, "")
        (out / "losses.json").rename(directory / "losses.original")
        for path in capture_paths:
            pathlib.Path(f"{path}.original").write_text(
                pathlib.Path(f"{path}.json").read_text())
    plan_path = directory / "plan.json"
    capture_paths = [str(directory / f"step{step}.iq") for step in range(10)]
    for step, path in enumerate(capture_paths):
        doc = json.loads(pathlib.Path(f"{path}.original").read_text())
        pathlib.Path(f"{path}.json").write_text(json.dumps(
            edited_sidecar(doc, edits) if step in steps else doc))
    (out / "losses.json").unlink(missing_ok=True)
    code, err = run_sound_freq(plan_path, capture_paths, out)
    unread = all(name == "origin_time_s" and value is not None
                 for name, value in edits)
    assert code == (0 if unread else 2)
    if code == 0:
        assert err == ""
        assert (out / "losses.json").read_text() \
            == (directory / "losses.original").read_text()
    else:
        assert any(sidecar_error(capture_paths[step],
                                 "|".join(SIDECAR_FIELDS)).fullmatch(err)
                   for step in steps)
        assert not (out / "losses.json").exists()


PLAN = sweep.FrequencySetup()
PLAN_TONE = multitx.build_frequency_plan(PLAN, 1)[0].tone_offsets_hz[0]
PLAN_BIN = PLAN.sample_rate_hz / PLAN.fft_length
# tones on either side of the default plan's one tone: on it, half a bin
# off it, one bin off it, and past the Nyquist edge
TONE_DRAWS = {"plan": (PLAN_TONE,),
              "off-bin": (PLAN_TONE - PLAN_BIN / 2, PLAN_TONE + PLAN_BIN / 2),
              "one-bin-off": (PLAN_TONE - PLAN_BIN, PLAN_TONE + PLAN_BIN),
              "out-of-band": (-5e5 - PLAN_BIN, 5e5, 6e5)}
# each plan field's edit sites, so that every field is drawn as often
PLAN_SITES = {}
for site in [*edit_sites(schema.to_json(PLAN)),
             (("tone_offsets_hz",), tuple(lambda _, tone=tone: [tone]
                                          for tones in TONE_DRAWS.values()
                                          for tone in tones))]:
    PLAN_SITES.setdefault(site[0][0], []).append(site)
PLAN_ERROR = re.compile(
    r"ValueError: (?:(?:carriers_hz|sample_rate_hz|fft_length|guard_band_hz"
    r"|step_duration_s|tone_offsets_hz)(?:\[\d+\])?|--tone-offset"
    r"|\S+\.iq\.json: (?:sample_rate_hz|sample_count)): .*\n")


@st.composite
def plan_edits(draw):
    """The default plan document with up to two of the validate
    property's edits, or its tones set to one of TONE_DRAWS; and a
    --tone-offset flag, none or one of TONE_DRAWS."""
    doc = schema.to_json(PLAN)
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(sorted(PLAN_SITES)))
        path, edits = draw(st.sampled_from(PLAN_SITES[field]))
        apply_edit(doc, path, draw(st.sampled_from(edits)))
    tone = draw(st.none() | st.sampled_from(sorted(TONE_DRAWS)).flatmap(
        lambda name: st.sampled_from(TONE_DRAWS[name])))
    return doc, tone


@given(edits=plan_edits())
@settings(max_examples=150)
def test_sound_freq_plan_exits_0_or_2_naming_a_field(tmp_path_factory, edits):
    # edited plans and --tone-offset values off the plan's bins, one bin
    # off its tone and outside the band, against the default plan's step
    # captures: the unedited losses wherever the plan's tone is read, else
    # one line naming a plan field, the flag or a step sidecar's field
    directory = tmp_path_factory.getbasetemp() / "freq-plan"
    out = directory / "out"
    if not directory.exists():
        directory.mkdir()
        plan_path, capture_paths = sweep_capture_files(directory)
        assert run_sound_freq(plan_path, capture_paths, out) == (0, "")
        (out / "losses.json").rename(directory / "losses.original")
    doc, tone = edits
    plan_path = directory / "plan.json"
    plan_path.write_text(json.dumps(doc))
    capture_paths = [str(directory / f"step{step}.iq") for step in range(10)]
    (out / "losses.json").unlink(missing_ok=True)
    flags = () if tone is None else ("--tone-offset", repr(tone))
    code, err = run_sound_freq(plan_path, capture_paths, out, *flags)
    assert code in (0, 2)
    if code == 2:
        assert PLAN_ERROR.fullmatch(err), err
        assert not (out / "losses.json").exists()
        return
    assert err == ""
    losses = json.loads((out / "losses.json").read_text())
    if losses["tone_offset_hz"] == PLAN_TONE:
        assert losses == json.loads(
            (directory / "losses.original").read_text())


# each sound command's float flags, with the fields their values reach
# and values in range: those of the default capture and plan among them
FLOAT_FLAGS = {
    ("sound-sliding", "--chip-period"): (
        "chip_period_s|\\S+\\.iq\\.json: sample_rate_hz", ("6e-8", "60E-9")),
    ("sound-sliding", "--rolloff"): ("rolloff", ("3.5e-1", "1e0", "0.5")),
    ("sound-sliding", "--threshold-db"): ("detection_threshold_db",
                                          ("3e1", "2.5E+1", "40")),
    ("sound-sliding", "--tx-power-db"): ("tx_power_db", ()),
    ("sound-freq", "--tx-power-db"): ("tx_power_db", ()),
    ("sound-freq", "--tone-offset"): ("tone_offset", (
        f"{PLAN_TONE:.11e}", repr(PLAN_TONE), f"{PLAN_TONE - PLAN_BIN:E}")),
}
NON_FINITE = ("nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity",
              "-Infinity", "INF", "1e400", "-1e400", "1E+400")


@st.composite
def float_flag_values(draw):
    """A sound command, one of its float flags and a value for it: in
    exponent form with either sign, a spelling of NaN or infinity, a plain
    number, or a value in the flag's range."""
    command, flag = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    exponent_form = st.builds(
        "{}{}{}{}".format, st.sampled_from(["", "-", "+"]),
        st.sampled_from(["1", "2.5", "6", "9.75"]), st.sampled_from("eE"),
        st.integers(-400, 400).map(str))
    plain = st.sampled_from(["0", "-0", "1", "-1", "-0.5", "0.35", "-6",
                             "3000", "-3000.25"])
    value = draw(exponent_form | st.sampled_from(NON_FINITE) | plain
                 | st.sampled_from(FLOAT_FLAGS[command, flag][1] or ("0",)))
    return command, flag, value


@given(drawn=float_flag_values())
@settings(max_examples=150)
def test_float_flags_exit_0_or_2_naming_the_flag(tmp_path_factory, drawn):
    # values argparse once took for options (-1e3, -inf) or passed on
    # unchecked (nan, inf, 1e400, which reached the outputs as NaN and
    # Infinity): strict JSON outputs, or one line naming the flag or the
    # field its value reaches
    command, flag, value = drawn
    directory = tmp_path_factory.getbasetemp() / "float-flags"
    if not directory.exists():
        directory.mkdir()
        sliding_capture_file(directory)
        sweep_capture_files(directory)
    inputs = (["--capture", str(directory / "capture.iq")]
              if command == "sound-sliding" else
              ["--plan", str(directory / "plan.json"),
               *(str(directory / f"step{step}.iq") for step in range(10))])
    out = directory / "out"
    target = out / ("profile.json" if command == "sound-sliding"
                    else "losses.json")
    target.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--json", "--out-dir", str(out), flag, value,
                     *inputs])
    assert caught == []
    status = strict_json(stdout.getvalue())
    assert code in (0, 2)
    if code == 0:
        assert (status["status"], stderr.getvalue()) == ("ok", "")
        strict_json(target.read_text())
        return
    assert status["status"] == "error"
    assert not target.exists()
    # a floor more than about 150 dB below the peak lets the float32
    # capture's rounding through on more than half the lags: the row has
    # no signal, and the line names the threshold
    errors = ("ValueError|NoSignalError" if flag == "--threshold-db"
              else "ValueError")
    fields = FLOAT_FLAGS[command, flag][0]
    assert re.fullmatch(
        rf"(?:{errors}): (?:{re.escape(flag)}|{fields}): .*\n",
        stderr.getvalue()), (value, stderr.getvalue())


@pytest.mark.parametrize("command, flag, value, error", [
    # argparse took these for options: its usage block and exit 2
    ("sound-sliding", "--tx-power-db", "-1e3", None),
    ("sound-sliding", "--tx-power", "-1e3", None),
    ("sound-freq", "--tone-offset", f"{PLAN_TONE:.11e}", None),
    ("sound-sliding", "--chip-period", "-6e-8",
     "ValueError: chip_period_s: must be positive"),
    # these reached profile.json, losses.json and the status line as NaN
    # or Infinity, or were blamed on something else
    ("sound-sliding", "--tx-power-db", "nan",
     "ValueError: --tx-power-db: must be finite, got nan"),
    ("sound-freq", "--tx-power-db", "1e400",
     "ValueError: --tx-power-db: must be finite, got inf"),
    ("sound-sliding", "--threshold-db", "nan",
     "ValueError: --threshold-db: must be finite, got nan"),
    ("sound-sliding", "--chip-period", "inf",
     "ValueError: --chip-period: must be finite, got inf"),
    # the mean of ten such losses overflowed to Infinity, with a warning
    ("sound-freq", "--tx-power-db", "1e308",
     "ValueError: --tx-power-db: 1e+308 dB has no finite, nonzero linear "
     "amplitude"),
    # pi / (4 * rolloff) overflowed: "ValueError: math domain error"
    ("sound-sliding", "--rolloff", "1e-310", None),
])
def test_float_flag_regressions(tmp_path, capsys, command, flag, value,
                                error):
    sliding_capture_file(tmp_path)
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    inputs = (["--capture", str(tmp_path / "capture.iq")]
              if command == "sound-sliding" else
              ["--plan", str(plan_path), *capture_paths])
    code, out, err = run_cli(capsys, command, "--json", "--out-dir",
                             str(tmp_path / "out"), flag, value, *inputs)
    strict_json(out)
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, error + "\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, field", [
    # a rate that contradicts --sps / --chip-period once gave a profile
    ({"sample_rate_hz": 0.5 * 4 / 60e-9}, "sample_rate_hz"),
    ({"sample_rate_hz": 2 * 4 / 60e-9}, "sample_rate_hz"),
    ({"sample_rate_hz": 1e-12}, "sample_rate_hz"),
    # and these were rejected with a message that named no field
    ({"sample_rate_hz": 1e12}, "sample_rate_hz"),
    ({"origin_time_s": 1e12}, "origin_time_s"),
    ({"origin_time_s": -1e-3}, "origin_time_s"),
    # t = 0 lies beyond any float sample index
    ({"origin_time_s": 1e306}, "origin_time_s"),
    ({"origin_time_s": -1e306}, "origin_time_s"),
], ids=["half-rate", "twice-rate", "rate-1e-12", "rate-1e12",
        "origin-1e12", "origin--1e-3", "origin-1e306", "origin--1e306"])
def test_sound_sliding_rejects_a_sidecar_by_field(tmp_path, change, field):
    capture_path = sliding_capture_file(tmp_path)
    sidecar = pathlib.Path(f"{capture_path}.json")
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()),
                                       **change)))
    code, err = run_sound_sliding(capture_path, tmp_path / "out")
    assert code == 2
    assert sidecar_error(capture_path, field).fullmatch(err)
    assert not (tmp_path / "out" / "profile.json").exists()


def test_sound_sliding_rejects_negative_settle_periods(tmp_path, capsys):
    # a negative settle once put the search window before the capture and
    # was blamed on the sidecar's origin_time_s
    code, _, err = run_cli(capsys, "sound-sliding", "--capture",
                           str(sliding_capture_file(tmp_path)),
                           "--settle-periods", "-1", "--out-dir",
                           str(tmp_path / "out"))
    assert (code, err) == (2, "ValueError: --settle-periods: must be >= 0, "
                              "got -1\n")


def test_sound_sliding_names_sample_count_for_a_short_capture(tmp_path):
    # the samples are too few for the periods read, wherever they sit
    config = sliding.SounderConfig()
    chips, taps = sliding.reference(config)
    tx = pulse.modulate(chips, 3, taps, config.chip_period_s)
    write_iq(tx, tmp_path / "capture.iq")
    code, err = run_sound_sliding(tmp_path / "capture.iq", tmp_path / "out")
    assert code == 2
    assert sidecar_error(tmp_path / "capture.iq", "sample_count").fullmatch(err)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_sound_sliding_names_a_non_finite_sample(tmp_path, value):
    # a NaN or inf part once failed with "samples must be finite", a line
    # that named neither the file nor the sample; the first bad sample
    # is named, here the imaginary part of sample 1234
    capture_path = sliding_capture_file(tmp_path)
    raw = np.fromfile(capture_path, dtype="<f4")
    raw[[2 * 1234 + 1, 2 * 5000]] = value
    raw.tofile(capture_path)
    code, err = run_sound_sliding(capture_path, tmp_path / "out")
    assert (code, err) == (2, f"ValueError: {capture_path}: sample 1234 is "
                              f"not finite\n")
    assert not (tmp_path / "out" / "profile.json").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_sound_freq_names_a_non_finite_sample(tmp_path, value):
    # the real part of sample 77 of step 3's capture, inside its FFT
    # window, and one more sample past that window
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    raw = np.fromfile(capture_paths[3], dtype="<f4")
    raw[[2 * 77, 2 * 4500]] = value
    raw.tofile(capture_paths[3])
    code, err = run_sound_freq(plan_path, capture_paths, tmp_path / "out")
    assert (code, err) == (2, f"ValueError: {capture_paths[3]}: sample 77 is "
                              f"not finite\n")
    assert not (tmp_path / "out" / "losses.json").exists()
