import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import resource
import shlex
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
from chansounder.cli import main

from helpers import (assert_no_child_left, bench_scenario, declared,
                     failing_channel_draw, field_range, measure_one,
                     modulated, received, save_document, write_iq)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_dir_flag(command, path) -> list:
    """--out-dir path for a command that writes, and nothing for validate,
    which writes nothing and takes no --out-dir."""
    return [] if command == "validate" else ["--out-dir", str(path)]


def test_gen_pn(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen-pn", "--out-dir", str(tmp_path))
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


def sliding_block_file(tmp_path, change):
    """The bundled sliding scenario, cut to two locations, with change
    made to its sliding block, and that block alone as a --config file."""
    scenario = bundled_edit(tmp_path, "indoor_wing_sliding",
                            lambda doc: doc["sliding"].update(change))
    block = tmp_path / "sliding.json"
    block.write_text(json.dumps(json.loads(scenario.read_text())["sliding"]))
    return scenario, block


# sliding blocks that gen-pn and sound-sliding reject, among them every
# bad value their per-field flags once took: the polynomial (not
# primitive, even, of another degree, or hex text), the degree (out of
# range, or with no default polynomial) and each other field out of its
# range, NaN and infinity included; each message names the field
SLIDING_BLOCK_ERRORS = [
    ({"polynomial": 0x403}, "polynomial: polynomial 0x403 is not primitive: "
                            "register period 889 != 1023"),
    ({"pn_degree": 4, "polynomial": 0x15},
     "polynomial: polynomial 0x15 is not primitive: register period 6 != 15"),
    ({"pn_degree": 4, "polynomial": 0x14},
     "polynomial: feedback polynomial must have a nonzero constant term"),
    ({"pn_degree": 4, "polynomial": 0x409},
     "polynomial: polynomial 0x409 does not have degree 4"),
    ({"polynomial": "0x409"}, "polynomial: expected int, got '0x409'"),
    ({"pn_degree": 13},
     "polynomial: no default polynomial for degree 13; pass one explicitly"),
    ({"pn_degree": 1}, "pn_degree: 1 is outside [2, 24]"),
    ({"pn_degree": -3}, "pn_degree: -3 is outside [2, 24]"),
    ({"pn_degree": 25, "polynomial": 0x409}, "pn_degree: 25 is outside [2, 24]"),
    ({"samples_per_symbol": 1}, "samples_per_symbol: 1 is outside [2, 256]"),
    ({"span_symbols": 3}, "span_symbols: 3 is outside [4, 512]"),
    ({"span_symbols": 13}, "span_symbols: 13 is not even"),
    ({"rolloff": 2}, "rolloff: 2.0 is outside [0.01, 1]"),
    # pi / (4 * rolloff) once overflowed: "ValueError: math domain error"
    ({"rolloff": 1e-310}, "rolloff: 1e-310 is outside [0.01, 1]"),
    ({"averaging_periods": 0}, "averaging_periods: 0 is outside [1, 4194304]"),
    ({"detection_threshold_db": -1},
     "detection_threshold_db: -1.0 dB is outside [1, 200] dB"),
    ({"detection_threshold_db": math.nan},
     "detection_threshold_db: must be finite, got nan"),
    ({"chip_period_s": -1}, "chip_period_s: -1.0 s is outside [1e-09, 0.001] s"),
    ({"chip_period_s": -6e-8},
     "chip_period_s: -6e-08 s is outside [1e-09, 0.001] s"),
    # a subnormal chip period was once blamed on the capture's rate
    ({"chip_period_s": 1e-310},
     "chip_period_s: 1e-310 s is outside [1e-09, 0.001] s"),
    ({"chip_period_s": math.inf}, "chip_period_s: must be finite, got inf"),
]


@pytest.mark.parametrize("change, message", SLIDING_BLOCK_ERRORS, ids=[
    ",".join(f"{name}={value!r}" for name, value in change.items())
    for change, _ in SLIDING_BLOCK_ERRORS])
def test_sliding_block_errors_name_their_field(tmp_path, capsys, change,
                                                message):
    # validate names the field in the scenario's sliding block; either
    # sliding command names it in its --config file, and writes nothing
    scenario, block = sliding_block_file(tmp_path, change)
    code, _, err = run_cli(capsys, "validate", "--scenario", str(scenario))
    assert (code, err) == (2, f"ValueError: sliding.{message}\n")
    for argv in (["gen-pn"], ["sound-sliding", "--capture", "absent.iq"]):
        code, _, err = run_cli(capsys, *argv, "--config", str(block),
                               "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (2, f"ValueError: {message}\n")
    assert not (tmp_path / "out").exists()


def test_unknown_flag(capsys):
    assert main(["gen-pn", "--frobnicate"]) != 0


# each command with a flag that it no longer takes: campaign's --seed
# (the scenario's master_seed is the one seed), gen-pn's --seed-state
# (the register starts at 1) and sound-sliding's --settle-periods (the
# receiver settles for sliding.SETTLE_PERIODS)
REMOVED_FLAGS = {
    "campaign --seed": ("campaign", ["--seed", "7"]),
    "gen-pn --seed-state": ("gen-pn", ["--seed-state", "3"]),
    "sound-sliding --settle-periods": ("sound-sliding",
                                       ["--settle-periods", "2"]),
}


@pytest.mark.parametrize("name", REMOVED_FLAGS)
def test_removed_flags_exit_2_and_the_environment_names_no_out_dir(
        tmp_path, capsys, monkeypatch, name):
    command, removed = REMOVED_FLAGS[name]
    command = [command, *{
        "campaign": ["--scenario", str(scenario_file(tmp_path))],
        "gen-pn": [],
        "sound-sliding": ["--capture", str(sliding_capture_file(tmp_path))],
    }[command]]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("CHANSOUNDER_OUT_DIR", str(tmp_path / "from_env"))
    code, _, err = run_cli(capsys, *command, *removed,
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err.endswith(f"error: unrecognized arguments: {' '.join(removed)}\n")
    assert not (tmp_path / "out").exists() and os.listdir(work) == []
    # without the flag the command runs, and without --out-dir it writes
    # to the working directory, whatever the environment says
    code, _, err = run_cli(capsys, *command)
    assert (code, err) == (0, "")
    assert os.listdir(work) and not (tmp_path / "from_env").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--scenario"], ["campaign", "--scenario"],
    ["sound-freq", "step0.iq", "--plan"], ["gen-pn", "--config"],
    ["sound-sliding", "--capture", "absent.iq", "--config"],
    pytest.param(["sound-sliding", "--capture"], id="sound-sliding-capture"),
    pytest.param(["sound-freq", "--plan", "{plan}"], id="sound-freq-capture"),
], ids=lambda argv: argv[0])
def test_an_empty_path_is_named_empty(tmp_path, capsys, monkeypatch, argv):
    # Path("") is the working directory: reading it once failed with
    # "cannot read .: [Errno 21] Is a directory: '.'", and an empty
    # capture with "cannot read ..json", its sidecar read from Path("")
    plan = tmp_path / "one-carrier.json"
    save_document(sweep.FrequencySetup(carriers_hz=(700e6,)), plan)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [arg.format(plan=plan) for arg in argv]
    code, _, err = run_cli(capsys, *argv, "", *out_dir_flag(argv[0], "out"))
    assert (code, err) == (2, "OSError: cannot read '': the path is empty\n")
    assert os.listdir(work) == []


@pytest.mark.parametrize("command", ["gen-pn", "sound-sliding", "sound-freq"])
def test_name_is_a_file_name_in_the_output_directory(tmp_path, capsys,
                                                    monkeypatch, command):
    # "../escaped.txt" once wrote beside the output directory, an absolute
    # name anywhere, and "" failed as "Is a directory: '.'"
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    plan, captures = sweep_capture_files(inputs)
    argv = {
        "gen-pn": [],
        "sound-sliding": ["--capture", str(sliding_capture_file(inputs))],
        "sound-freq": ["--plan", str(plan), *captures],
    }[command]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for name in ("", ".", "..", "../escaped.txt", "sub/x.txt",
                 str(tmp_path / "absolute.txt")):
        code, _, err = run_cli(capsys, command, *argv, "--name", name,
                               "--out-dir", "out")
        assert (code, err) == (2, f"ValueError: --name: {name!r} is not a "
                                  f"file name\n")
    assert os.listdir(work) == [] and sorted(os.listdir(tmp_path)) \
        == ["inputs", "work"]
    # a plain file name is written inside the output directory
    code, _, err = run_cli(capsys, command, *argv, "--name", "x.txt",
                           "--out-dir", "out")
    assert (code, err) == (0, "") and os.listdir(work / "out") == ["x.txt"]


@pytest.mark.parametrize("command",
                         ["gen-pn", "sound-sliding", "sound-freq", "campaign"])
def test_an_empty_out_dir_exits_2(tmp_path, capsys, monkeypatch, command):
    # gen-pn --out-dir "" once exited 0, writing into the working directory
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    plan, captures = sweep_capture_files(inputs)
    argv = {
        "gen-pn": [],
        "sound-sliding": ["--capture", str(sliding_capture_file(inputs))],
        "sound-freq": ["--plan", str(plan), *captures],
        "campaign": ["--scenario", str(scenario_file(inputs))],
    }[command]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, _, err = run_cli(capsys, command, *argv, "--out-dir", "")
    assert (code, err) == (2, "ValueError: --out-dir: '' names no directory\n")
    assert os.listdir(work) == [] and sorted(os.listdir(tmp_path)) \
        == ["inputs", "work"]


def test_validate_takes_no_out_dir(tmp_path, capsys):
    # validate writes nothing, so an --out-dir it ignored once exited 0
    code, _, err = run_cli(capsys, "validate", "--scenario",
                           str(scenario_file(tmp_path)),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err.endswith(f"error: unrecognized arguments: --out-dir "
                        f"{tmp_path / 'out'}\n")
    assert not (tmp_path / "out").exists()


def readme_command_lines():
    """The chansounder command lines of README's "Command line" block."""
    text = (BUNDLED.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("chansounder ")]


def test_readme_command_lines_parse():
    # every example in the README's command-line block is one that the
    # parser takes, and together they show every subcommand
    parser = cli.build_parser()
    commands = set()
    for line in readme_command_lines():
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
        commands.add(args.command)
    assert commands == {"gen-pn", "sound-sliding", "sound-freq", "campaign",
                        "validate"}


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


def sliding_block(source, path):
    """The sliding block that source names, written as a --config file
    at path (None: no file, the block's defaults)."""
    if source == "degree-9":
        config = sliding.SounderConfig(
            pn_degree=9, polynomial=529, samples_per_symbol=2, span_symbols=8,
            rolloff=0.5, averaging_periods=4)
        save_document(config, path)
    elif source == "bundled":  # the scenario file's block, as it is there
        config = cp.load_scenario(BUNDLED / "indoor_wing_sliding.json").sliding
        path.write_text(json.dumps(cut_bundled("indoor_wing_sliding")["sliding"]))
    elif source == "rolloff-0.01":  # the narrowest band the block takes
        config = sliding.SounderConfig(rolloff=0.01)
        path.write_text(json.dumps({"rolloff": 0.01}))
    else:
        return sliding.SounderConfig(), None
    return config, path


@pytest.mark.parametrize("source", ["degree-9", "bundled", "rolloff-0.01",
                                    "none"])
def test_one_sliding_block_drives_both_commands(tmp_path, capsys, source):
    # gen-pn writes the chips of the block's reference, and sound-sliding
    # measures a capture modulated from them as measure_sliding does in
    # process, bit for bit
    config, path = sliding_block(source, tmp_path / "sliding.json")
    flags = [] if path is None else ["--config", str(path)]
    chips, taps = sliding.reference(config)
    code, _, err = run_cli(capsys, "gen-pn", *flags,
                           "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    written = (tmp_path / "chips.txt").read_text().split()
    assert [int(chip) for chip in written] == chips.chips.tolist()
    planted = ch.MultipathChannel(
        gains=[1.0, 0.25], delays=[0.0, 3 * config.chip_period_s])
    burst = pulse.modulate(chips, config.averaging_periods + 2, taps,
                           config.chip_period_s)
    capture_path = tmp_path / "capture.iq"
    write_iq(received(burst, planted), capture_path)
    profile = measure_one(pulse.read_iq(capture_path), chips, taps, config)
    code, _, err = run_cli(capsys, "sound-sliding", *flags,
                           "--capture", str(capture_path),
                           "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert (tmp_path / "profile.json").read_text() == \
        json.dumps(profile, indent=2) + "\n"
    assert [tap["lag"] for tap in profile["taps"]] == [0, 3]


def test_sound_sliding_exits_2_where_no_lag_clears_the_floor(tmp_path,
                                                             capsys):
    # 600 taps at 0.85 of the strongest, beside 422 empty lags: at a
    # detection_threshold_db of 1 the relative floor, 0.89 of the peak,
    # leaves them all off peak, and five times their spread, about 2.1
    # peaks, is the floor that no lag clears
    config = sliding.SounderConfig(detection_threshold_db=1.0)
    chips, taps = sliding.reference(config)
    chip = config.chip_period_s
    planted = ch.MultipathChannel(gains=[0.85] * 600 + [1.0],
                                  delays=np.arange(601) * chip)
    capture_path = tmp_path / "capture.iq"
    write_iq(received(pulse.modulate(chips, 12, taps, chip), planted),
             capture_path)
    save_document(config, tmp_path / "sliding.json")
    code, _, err = run_cli(capsys, "sound-sliding", "--capture",
                           str(capture_path), "--config",
                           str(tmp_path / "sliding.json"),
                           "--out-dir", str(tmp_path))
    assert (code, err) == (2, "NoSignalError: no correlation lag stands "
                              "clear of the detection floor\n")
    assert not (tmp_path / "profile.json").exists()


def sweep_capture_files(tmp_path):
    """A default plan file and one flat-channel capture file per carrier
    step."""
    plan_path = tmp_path / "plan.json"
    save_document(sweep.FrequencySetup(), plan_path)
    [frame] = multitx.build_frequency_plan(sweep.FrequencySetup(), 1)
    chan = ch.MultipathChannel(gains=[0.5], delays=[0.0])
    steps = range(len(frame.carriers_hz))
    rows = sweep.compose_sweep_capture([chan], frame, sweep.unit_tones(frame),
                                       steps)
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
                           "--out-dir", str(tmp_path), "one.iq", "two.iq")
    assert (code, err) == (2, "ValueError: captures: need one capture per "
                              "carrier step (10), got 2\n")


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
                               "--out-dir", str(out))
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
                           str(scenario_path), "--json")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_guard_band_violation(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["mode"] = "frequency"
    bin_width = 1e6 / 4096
    doc["frequency"]["tone_offsets_hz"] = [0.0, 4 * bin_width]  # under guard
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(bad))
    assert code == 2
    assert "guard band" in err


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate",
                           "--scenario", str(tmp_path / "missing.json"))
    assert code == 2
    assert "missing.json" in err


@pytest.mark.parametrize("command", ["validate", "campaign"])
def test_scenario_file_holding_a_list_exits_2(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    code, _, err = run_cli(capsys, command, "--scenario", str(path),
                           *out_dir_flag(command, tmp_path / "out"))
    assert (code, err) == (2, "ValueError: scenario: expected an object, "
                              "got [1, 2]\n")


@pytest.mark.parametrize("name, what", [("records.jsonl", "records"),
                                        ("heatmap_tx2.csv", "heat map")])
def test_campaign_output_that_is_a_directory_exits_2(tmp_path, capsys, name,
                                                     what):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code, _, err = run_cli(capsys, "campaign", "--scenario",
                           str(scenario_file(tmp_path)), "--out-dir", str(out))
    assert code == 2
    assert re.fullmatch(f"OSError: cannot write {what} to "
                        f"{re.escape(str(out / name))}: [^\n]+\n", err), err


# frequency-block values in range of their type but not of the sweep
FREQUENCY_FIELD_CASES = [
    ("frequency", "fft_length", 0, "frequency.fft_length"),
    ("frequency", "sample_rate_hz", -1e6, "frequency.sample_rate_hz"),
    ("frequency", "step_duration_s", 1e-6, "frequency.step_duration_s"),
    # -inf samples, which once failed to round
    ("frequency", "step_duration_s", -1.7e308, "frequency.step_duration_s"),
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
        # one offset for two transmitters
        ("clocks", "tx_offsets_s", [0.0], "clocks.tx_offsets_s"),
        # offsets outside the +-1 s clock range (more samples than a float
        # holds once failed to round)
        ("clocks", "rx_offset_s", 1e301, "clocks.rx_offset_s"),
        ("clocks", "rx_offset_s", -1e301, "clocks.rx_offset_s"),
        ("clocks", "offset_std_s", 1e301, "clocks.offset_std_s"),
        ("clocks", "tx_offsets_s", [1e301, 0.0], "clocks.tx_offsets_s[0]"),
        ("clocks", "tx_offsets_s", [0.0, -1.7e308], "clocks.tx_offsets_s[1]"),
        ("environment", "tap_count_range", [3.5, 6],
         "environment.tap_count_range[0]"),
        # more taps than a draw may have: 10**18 once asked for 8 EB, and
        # 2**63 failed in the generator naming no field
        ("environment", "tap_count_range", [2, 10**18],
         "environment.tap_count_range[1]"),
        ("environment", "tap_count_range", [2, 2**63],
         "environment.tap_count_range[1]"),
        # 0 once divided by zero counting walls, and -1 passed
        ("environment", "wall_grid_spacing_m", 0.0,
         "environment.wall_grid_spacing_m"),
        ("environment", "wall_grid_spacing_m", -1.0,
         "environment.wall_grid_spacing_m"),
        ("transmitters", "position_m", ["a", "b", "c"],
         "transmitters[0].position_m[0]"),
        (None, "receiver_path_m", [[2.0, 3.0, 1.2], [3.0, 3.0]],
         "receiver_path_m[1]"),
        # powers outside the power range
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
                           *out_dir_flag(command, tmp_path / "out"))
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
                           *out_dir_flag(command, tmp_path / "out"))
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
                           *out_dir_flag(command, tmp_path / "out"))
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


# values near the ends of a float's range: +-1e301, whose products
# with a rate or a count overflow, the largest floats, and the smallest
# subnormal
FLOAT_EXTREMES = (1e301, -1e301, 1.7e308, -1.7e308, 5e-324)


def edit_sites(value, path=()):
    """Every number, null and list of a scenario document, each with the
    edits that may replace it: numbers and nulls by 0, -1, 1e-12, 1e12,
    +-1e3 or +-1.001e3, which straddle either end of the power range
    (+-1000 dB), or FLOAT_EXTREMES, integers also by 10**18 and 2**63,
    which a float holds but an int64 may not, and lists by the empty or
    the reversed list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from edit_sites(item, path + (key,))
    elif isinstance(value, list):
        yield path, (lambda items: [], lambda items: items[::-1])
        for k, item in enumerate(value):
            yield from edit_sites(item, path + (k,))
    elif value is None or (isinstance(value, (int, float))
                           and not isinstance(value, bool)):
        values = (0, -1, 1e-12, 1e12, 1e3, 1.001e3, -1e3, -1.001e3) \
            + FLOAT_EXTREMES
        if isinstance(value, int):
            values += (10**18, 2**63)
        yield path, tuple(lambda _, v=v: v for v in values)


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
    [(frame, _)], _ = cp.prepare(cp.load_scenario(path))
    bin_width = frame.sample_rate_hz / frame.fft_length
    assert np.diff(frame.tone_offsets_hz).tolist() == [bin_width]


def set_environment(**fields):
    return lambda doc: doc["environment"].update(fields)


def loss_out_of_range(field, loss, location=0):
    return (f"{field}: the path loss from transmitter 'tx1' to "
            f"receiver_path_m[{location}] is {loss} dB, outside +-1000 dB")


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("name, edit, message", [
    # each coefficient is out of its own range, which holds its term of
    # the path loss within the power range; the path loss named it once
    ("indoor_wing_sliding", set_environment(reference_loss_db=-1e12),
     "environment.reference_loss_db: -1000000000000.0 dB is outside "
     "+-1000 dB"),
    ("courtyard_frequency", set_environment(reference_loss_db=-1e12),
     "environment.reference_loss_db: -1000000000000.0 dB is outside "
     "+-1000 dB"),
    ("indoor_wing_sliding", set_environment(path_loss_exponent=1e12),
     "environment.path_loss_exponent: 1000000000000.0 is outside [0, 10]"),
    ("courtyard_frequency", set_environment(path_loss_exponent=1e12),
     "environment.path_loss_exponent: 1000000000000.0 is outside [0, 10]"),
    # in range by itself, but 0.1 m from the transmitter the distance
    # term's -28 dB tips the loss over; the position was once named
    ("indoor_wing_sliding", set_environment(reference_loss_db=-990.0),
     loss_out_of_range("environment.reference_loss_db", "-1018")),
    # 3.3e6 walls of 3 dB between the pair, 1e7 m apart, at the edge of
    # the coordinate range: the position is further from 1 m than the
    # 6 m grid spacing
    ("indoor_wing_sliding",
     lambda doc: doc["transmitters"][0]["position_m"].__setitem__(0, 1e7),
     loss_out_of_range("transmitters[0].position_m", "5.00023e+06")),
    ("indoor_wing_sliding",
     lambda doc: doc["receiver_path_m"][1].__setitem__(1, -1e7),
     loss_out_of_range("receiver_path_m[1]", "5.00024e+06", 1)),
    # a grid finer than 1 mm is outside the spacing's range, so every
    # wall count is a float
    ("indoor_wing_sliding",
     lambda doc: (doc["receiver_path_m"][1].__setitem__(1, -1e10),
                  doc["environment"].update(wall_grid_spacing_m=1e-300)),
     "environment.wall_grid_spacing_m: 1e-300 m is outside [0.001, 1e+07] m"),
    # 3000 walls of 3 dB between pairs a few metres apart on the finest
    # grid, 1 mm; the position was once named
    ("indoor_wing_sliding", set_environment(wall_grid_spacing_m=1e-3),
     loss_out_of_range("environment.wall_grid_spacing_m", "9053.37", 1)),
], ids=["reference-sliding", "reference-frequency", "exponent-sliding",
        "exponent-frequency", "reference-near-transmitter",
        "transmitter-position", "receiver-position", "uncountable-walls",
        "tiny-wall-spacing"])
def test_path_loss_outside_float_range_exits_2(tmp_path, capsys, command,
                                               name, edit, message):
    path = bundled_edit(tmp_path, name, edit)
    code, _, err = run_cli(capsys, command, "--scenario", str(path),
                           *out_dir_flag(command, tmp_path / "out"))
    assert (code, err) == (2, f"ValueError: {message}\n")
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
    # a 7 s spread once asked apply_channel for 16 GiB; 1 s, the top of
    # the spread's range, is still far past the PN period
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        set_environment(delay_spread_scale_s=1.0))
    expected = ("ValueError: environment.delay_spread_scale_s: 1.0 s is not "
                "below the 6.138e-05 s PN period, the unambiguous delay "
                "range\n")
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, err) == (2, expected)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


def slot_too_long(field, samples):
    return (f"{field}: a slot of {samples} samples is above the "
            f"{multitx.MAX_SLOT_SAMPLES}-sample limit")


@pytest.mark.parametrize("changes, message", [
    # 6.7e7 samples once asked for 2.98 GiB, 6.7e19 overran numpy's
    # largest dimension, and a guard fraction near 1/2 for 10.7 TiB; a
    # slot of up to 1 s and guards of up to 45% are in range
    ({"schedule": {"slot_length_s": 1.0}},
     slot_too_long("schedule.slot_length_s", "6.66667e+07")),
    ({"schedule": {"slot_length_s": 1e12}},
     "schedule.slot_length_s: 1000000000000.0 s is outside [1e-09, 1] s"),
    ({"schedule": {"slot_length_s": 1e301}},
     "schedule.slot_length_s: 1e+301 s is outside [1e-09, 1] s"),
    ({"schedule": {"guard_fraction": 0.45},
      "sliding": {"averaging_periods": 101}},
     slot_too_long("schedule.guard_fraction", "4.21524e+06")),
], ids=["one-second", "1e12-seconds", "overflowing", "guard-near-half"])
def test_oversized_slot_exits_2_before_allocating(tmp_path, capsys, changes,
                                                  message):
    path = bundled_edit(tmp_path, "indoor_wing_sliding", lambda doc: [
        doc[block].update(fields) for block, fields in changes.items()])
    expected = f"ValueError: {message}\n"
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, err) == (2, expected)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


def step_too_long(samples):
    return (f"frequency.step_duration_s: a carrier step of {samples} samples "
            f"is above the {multitx.MAX_SLOT_SAMPLES}-sample slot limit")


@pytest.mark.parametrize("change, message", [
    # a 5e9-sample unit tone once made validate ask numpy for 80 GB; at
    # the top of the rate's and of the step's range a step is still
    # above the slot limit
    ({"sample_rate_hz": 1e9}, step_too_long("5e+06")),
    ({"step_duration_s": 10.0}, step_too_long("1e+07")),
    ({"step_duration_s": 1e301, "sample_rate_hz": 1e301},
     "frequency.sample_rate_hz: 1e+301 Hz is outside [1000, 1e+09] Hz"),
], ids=["rate-1e9", "step-10s", "overflowing"])
def test_oversized_carrier_step_exits_2_before_allocating(tmp_path, change,
                                                          message):
    path = bundled_edit(tmp_path, "courtyard_frequency",
                        lambda doc: doc["frequency"].update(change))
    for argv in (["validate"], ["campaign", "--out-dir", str(tmp_path / "out")]):
        child = run_cli_limited(*argv, "--scenario", str(path))
        assert (child.returncode, child.stderr) == (2, f"ValueError: {message}\n")
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


@pytest.mark.parametrize("change, field, message", [
    # 24001 taps once made design_rrc ask for 2.15 GiB, 400001 for 596 GiB;
    # the ranges hold either length to 1025 taps at the shortest span or
    # the fewest samples per symbol
    ({"samples_per_symbol": 2000}, "samples_per_symbol",
     "2000 is outside [2, 256]"),
    ({"span_symbols": 100000}, "span_symbols", "100000 is outside [4, 512]"),
    # 257 samples per symbol are too many at the shortest span, 4 symbols
    ({"samples_per_symbol": 257, "span_symbols": 4}, "samples_per_symbol",
     "257 is outside [2, 256]"),
    ({"samples_per_symbol": 8, "span_symbols": 130}, "span_symbols",
     f"a filter of span_symbols * samples_per_symbol + 1 = 1041 taps is "
     f"above the {pulse.MAX_FILTER_TAPS}-tap limit"),
], ids=["sps-2000", "span-100000", "sps-257-at-span-4", "span-130-at-sps-8"])
def test_oversized_filter_exits_2_before_allocating(tmp_path, change, field,
                                                    message):
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        lambda doc: doc["sliding"].update(change))
    message += "\n"
    for argv in (["validate"], ["campaign", "--out-dir", str(tmp_path / "out")]):
        child = run_cli_limited(*argv, "--scenario", str(path),
                                address_space=1 << 30)
        assert (child.returncode, child.stderr) == (
            2, f"ValueError: sliding.{field}: {message}")
    assert not (tmp_path / "out" / "records.jsonl").exists()
    # the sliding commands name the field of their --config file
    _, block = sliding_block_file(tmp_path, change)
    for argv in (["gen-pn"], ["sound-sliding", "--capture",
                              str(sliding_capture_file(tmp_path))]):
        child = run_cli_limited(*argv, "--config", str(block),
                                "--out-dir", str(tmp_path / "out"),
                                address_space=1 << 30)
        assert (child.returncode, child.stderr) == (
            2, f"ValueError: {field}: {message}")
    assert not (tmp_path / "out" / "profile.json").exists()
    assert not (tmp_path / "out" / "chips.txt").exists()


def test_longest_filter_is_accepted():
    # the bound admits the longest filter, at the shortest span
    config = sliding.SounderConfig(span_symbols=4, samples_per_symbol=256)
    assert config.span_symbols * config.samples_per_symbol + 1 \
        == pulse.MAX_FILTER_TAPS


@pytest.mark.parametrize("scale, message", [
    pytest.param(1e301, "1e+301 s is not 0 and outside [1e-12, 1] s",
                 id="1e+301"),
    pytest.param(5e-3, "0.005 s is not below the 0.005 s carrier step",
                 id="0.005"),
    pytest.param(1.0, "1.0 s is not below the 0.005 s carrier step",
                 id="1.0"),
])
def test_delay_spread_beyond_the_carrier_step_exits_2(tmp_path, capsys,
                                                      scale, message):
    # a 1e301 s spread once ended in an OverflowError traceback from the
    # delay grid snap; it is outside the spread's range, and the top of
    # that range is past the carrier step
    path = bundled_edit(tmp_path, "courtyard_frequency",
                        set_environment(delay_spread_scale_s=scale))
    expected = f"ValueError: environment.delay_spread_scale_s: {message}\n"
    for command in ("validate", "campaign"):
        code, _, err = run_cli(capsys, command, "--scenario", str(path),
                               *out_dir_flag(command, tmp_path / "out"))
        assert (code, err) == (2, expected)
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("name, edit", [
    # at the least spread, 1 ps, a far tap's power is 0
    ("indoor_wing_sliding", set_environment(delay_spread_scale_s=1e-12)),
    ("courtyard_frequency", set_environment(delay_spread_scale_s=1e-12)),
    # the longest chip period, 1 ms, draws taps on a 1 ms grid
    ("indoor_wing_sliding",
     lambda doc: doc["sliding"].update(chip_period_s=1e-3)),
    # offsets of +-1 s, the ends of their range, are whole samples, modulo
    # the TDMA period
    ("indoor_wing_sliding", lambda doc: doc["clocks"].update(
        tx_offsets_s=[1.0, -1.0, 0.0], rx_offset_s=1.0)),
], ids=["sliding-tiny-spread", "frequency-tiny-spread", "huge-chip-period",
        "huge-clock-offsets"])
def test_extreme_draws_write_strict_json_without_warnings(tmp_path, name,
                                                           edit):
    # a 5e-324 s spread and a 1e301 s chip period once printed an overflow
    # RuntimeWarning; the ends of their ranges must keep running
    path = bundled_edit(tmp_path, name, edit)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    assert len(strict_records(tmp_path / "out" / "records.jsonl")) \
        == 2 * len(cut_bundled(name)["transmitters"])


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


def test_drawn_tap_past_the_slot_room_exits_2(tmp_path, capsys):
    # at a 1 % guard the slot leaves 1004 samples after the 49152-sample
    # burst, and five channels drawn on this walk have a later tap: its
    # echo once ran into the next slot's segment, and the campaign
    # exited 0 with no record flagged
    scenario = bench_scenario("sliding-c9", 7, 30)
    scenario = dataclasses.replace(
        scenario, schedule=multitx.ScheduleSetup(guard_fraction=0.01),
        environment=dataclasses.replace(scenario.environment,
                                        delay_spread_scale_s=2e-6))
    path = tmp_path / "spill.json"
    cp.save_scenario(scenario, path)
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 0, err
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert re.fullmatch(
        r"ValueError: environment\.delay_spread_scale_s: the channel drawn "
        r"for transmitter 'tx3' at receiver_path_m\[2\] has a tap \S+ s "
        r"late, 1192 samples, more than the 1004 samples that its slot "
        r"leaves after the burst\n", err), err
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scale, where, late", [
    pytest.param(4e-3, "transmitter 'tx2' at receiver_path_m[0]",
                 0.016120975000000003, id="4e-3"),
    # the first late tap is in the second block of locations
    pytest.param(5e-4, "transmitter 'tx1' at receiver_path_m[4]",
                 0.006116397, id="5e-4"),
])
def test_drawn_tap_beyond_the_carrier_step_exits_2(tmp_path, capsys,
                                                   monkeypatch, workers,
                                                   scale, where, late):
    # the spread is below the 5 ms carrier step, but a drawn delay is
    # not: such a tap, up to 48.9 ms late on this walk, was once heard
    # in a later step and recorded with no flag
    scenario = bench_scenario("frequency-c9", 43, 5)
    scenario = dataclasses.replace(
        scenario, environment=dataclasses.replace(
            scenario.environment, delay_spread_scale_s=scale))
    path = tmp_path / "late.json"
    cp.save_scenario(scenario, path)
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 0, err
    monkeypatch.setattr(cli, "_campaign_workers", lambda: workers)
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (
        2, f"ValueError: environment.delay_spread_scale_s: the channel drawn "
           f"for {where} has a tap {late!r} s late, not below the 0.005 s "
           f"carrier step\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()
    assert_no_child_left()


def test_near_float_limit_path_loss_runs_without_warnings(tmp_path):
    # a -971.5 dB reference loss puts the walk's path losses between
    # -999.5 and -911 dB, inside the power range, and gives taps near
    # 1e50; at -3000 dB the timing search's phase scores once overflowed
    # (a RuntimeWarning on stderr, then a phase picked from inf/nan scores)
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        set_environment(reference_loss_db=-971.5))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    records = strict_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 6
    for record in records:
        assert record["flags"] == []
        assert -1000.0 < record["wideband_path_loss_db"] < -900.0


def test_overflowing_channel_output_exits_2_with_one_stderr_line(tmp_path):
    # each tap of every channel output would overflow to inf or NaN; the
    # transmit power is rejected where it enters, before any channel is
    # drawn, and numpy prints no warning ahead of the one line
    def loud(doc):
        doc["environment"]["reference_loss_db"] = -200.0
        for tx in doc["transmitters"]:
            tx["tx_power_db"] = 6100.0

    path = bundled_edit(tmp_path, "indoor_wing_sliding", loud)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, "ValueError: transmitters[0].tx_power_db: 6100.0 dB is outside "
           "+-1000 dB\n")
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
                            *out_dir_flag(command, tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, "ValueError: transmitters[0].tx_power_db: 3200.0 dB is outside "
           "+-1000 dB\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_loud_transmitters_below_the_ceiling_write_strict_json(tmp_path):
    path = bundled_edit(tmp_path, "indoor_wing_sliding",
                        set_tx_power(cp.POWER_LIMIT_DB))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    records = strict_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 6
    for record in records:
        assert record["flags"] == []


def set_first_tx_power(db):
    return lambda doc: doc["transmitters"][0].update(tx_power_db=db)


def set_noise_power(dbfs):
    return lambda doc: doc.update(noise_power_dbfs=dbfs)


def flat_loss(db):
    """Every pair's path loss the reference loss, db: an exponent of
    1e-300 leaves no distance term (the frequency walk has no walls)."""
    return set_environment(reference_loss_db=db, path_loss_exponent=1e-300)


def chip_period(chip_s):
    """A chip period of chip_s, with no delay spread for it to exceed."""
    def edit(doc):
        doc["sliding"]["chip_period_s"] = chip_s
        doc["environment"]["delay_spread_scale_s"] = 0.0
    return edit


# the next floats past either end of the power range
PAST_LIMIT = math.nextafter(cp.POWER_LIMIT_DB, math.inf)
PAST_MINUS_LIMIT = math.nextafter(-cp.POWER_LIMIT_DB, -math.inf)


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("name, edit, message", [
    # a PN period of 1023 chips of inf s, and sample rates of inf Hz: a
    # drawn tap and the receiver's clock offset were once blamed
    *[("indoor_wing_sliding", chip_period(chip_s),
       f"sliding.chip_period_s: {chip_s!r} s is outside [1e-09, 0.001] s")
      for chip_s in (1.7e308, 1e-310, 5e-324)],
    # the tap powers underflowed: "total tap power is zero", or, at a
    # lower power, every record flagged no_signal
    *[("indoor_wing_sliding", set_first_tx_power(db),
       f"transmitters[0].tx_power_db: {db:.1f} dB is outside +-1000 dB")
      for db in (-3100, -4000, -5000, -6000, -6400)],
    # path losses of -8388 to 8412 dB, for which the first position was
    # once named
    *[(name, set_environment(reference_distance_m=metres),
       f"environment.reference_distance_m: {metres!r} m is outside "
       f"[0.001, 10000] m")
      for name in ("indoor_wing_sliding", "courtyard_frequency")
      for metres in (1e300, 1e-300)],
    # one float past either end of the range of each power
    *[(name, set_first_tx_power(db),
       f"transmitters[0].tx_power_db: {db!r} dB is outside +-1000 dB")
      for name in ("indoor_wing_sliding", "courtyard_frequency")
      for db in (PAST_LIMIT, PAST_MINUS_LIMIT)],
    *[(name, set_noise_power(PAST_LIMIT),
       f"noise_power_dbfs: {PAST_LIMIT!r} dBFS is outside +-1000 dBFS")
      for name in ("indoor_wing_sliding", "courtyard_frequency")],
    # a reference loss past the power range, which the path loss once
    # named
    *[("courtyard_frequency", flat_loss(db),
       f"environment.reference_loss_db: {db!r} dB is outside +-1000 dB")
      for db in (PAST_LIMIT, PAST_MINUS_LIMIT)],
], ids=["pn-period", "subnormal-1e-310", "subnormal-5e-324", "tx-power-3100",
        "tx-power-4000", "tx-power-5000", "tx-power-6000", "tx-power-6400", "far-reference-sliding",
        "near-reference-sliding", "far-reference-frequency",
        "near-reference-frequency", "sliding-tx-power-past-plus-limit",
        "sliding-tx-power-past-minus-limit",
        "frequency-tx-power-past-plus-limit",
        "frequency-tx-power-past-minus-limit", "sliding-noise-past-limit",
        "frequency-noise-past-limit", "path-loss-past-plus-limit",
        "path-loss-past-minus-limit"])
def test_input_out_of_float_range_exits_2_naming_its_field(
        tmp_path, capsys, command, name, edit, message):
    path = bundled_edit(tmp_path, name, edit)
    code, _, err = run_cli(capsys, command, "--scenario", str(path),
                           *out_dir_flag(command, tmp_path / "out"))
    assert (code, err) == (2, f"ValueError: {message}\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_quiet_transmitters_above_the_floor_measure_their_loss(tmp_path):
    # at -1000 dB, the floor of the power range, every record measures
    # the loss that a 0 dB transmitter measures
    losses = {}
    for db in (0.0, -cp.POWER_LIMIT_DB):
        path = bundled_edit(tmp_path, "indoor_wing_sliding", set_tx_power(db))
        child = run_cli_limited("campaign", "--scenario", str(path),
                                "--out-dir", str(tmp_path / f"out{db}"))
        assert (child.returncode, child.stderr) == (0, "")
        records = strict_records(tmp_path / f"out{db}" / "records.jsonl")
        assert all(record["flags"] == [] for record in records)
        losses[db] = [record["wideband_path_loss_db"] for record in records]
    assert losses[-cp.POWER_LIMIT_DB] == pytest.approx(losses[0.0], abs=1e-6)


def capture_samples(name):
    """The samples in one capture of a bundled scenario: its TDMA
    period, or one carrier step."""
    scenario = cp.load_scenario(BUNDLED / f"{name}.json")
    if scenario.mode == cp.MODE_SLIDING:
        return cp.prepare(scenario)[3].period_samples  # the schedule's
    setup = scenario.frequency
    return round(setup.step_duration_s * setup.sample_rate_hz)


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
                            *out_dir_flag(command, tmp_path / "out"))
    assert (child.returncode, child.stderr) == (
        2, f"ValueError: noise_power_dbfs: {dbfs!r} dBFS is outside +-1000 "
           f"dBFS\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()
    # summed over one capture, the rejected noise power overflows a
    # float, and the limit's stays far inside it
    assert capture_samples(name) == samples
    top = math.log10(sys.float_info.max)
    assert dbfs / 10 + math.log10(samples) > top
    assert cp.POWER_LIMIT_DB / 10 + math.log10(samples) < top - 200


@pytest.mark.parametrize("name, dbfs", [
    ("indoor_wing_sliding", cp.POWER_LIMIT_DB),
    ("courtyard_frequency", cp.POWER_LIMIT_DB)])
def test_loud_noise_below_the_ceiling_writes_strict_json(tmp_path, name, dbfs):
    # the ceiling is the power range's, 1000 dBFS, in either mode
    path = bundled_edit(tmp_path, name, set_noise_power(dbfs))
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    assert len(strict_records(tmp_path / "out" / "records.jsonl")) \
        == 2 * len(cut_bundled(name)["transmitters"])


def edge_of_range(loud):
    """An edit to the bundled scenarios that puts every power at one end
    of the range: with loud, transmitters at +1000 dB, path losses near
    -1000 dB, noise at +1000 dBFS and, in sliding mode, leakage in band;
    else transmitters at -1000 dB and path losses near +1000 dB. The
    walks' path losses span 12 to 101 dB (sliding, reference loss 40 dB)
    and 47.9 to 70 dB (frequency, 38 dB)."""
    def edit(doc):
        sliding_mode = doc["mode"] == "sliding"
        set_tx_power(cp.POWER_LIMIT_DB if loud else -cp.POWER_LIMIT_DB)(doc)
        doc["environment"]["reference_loss_db"] = (
            (-971.5 if sliding_mode else -1000.0) if loud
            else (935.0 if sliding_mode else 967.5))
        if loud:
            doc["noise_power_dbfs"] = cp.POWER_LIMIT_DB
            if sliding_mode:
                doc["leakage"]["park_mode"] = "in_band"
    return edit


@pytest.mark.parametrize("name, edit", [
    *[(name, edge_of_range(loud))
      for name in ("indoor_wing_sliding", "courtyard_frequency")
      for loud in (True, False)],
    *[("courtyard_frequency", flat_loss(db))
      for db in (cp.POWER_LIMIT_DB, -cp.POWER_LIMIT_DB)],
], ids=["sliding-loud", "sliding-quiet", "frequency-loud", "frequency-quiet",
        "path-loss-at-plus-limit", "path-loss-at-minus-limit"])
def test_campaign_at_the_edge_of_the_power_range_writes_strict_json(
        tmp_path, name, edit):
    path = bundled_edit(tmp_path, name, edit)
    child = run_cli_limited("campaign", "--scenario", str(path),
                            "--out-dir", str(tmp_path / "out"))
    assert (child.returncode, child.stderr) == (0, "")
    records = strict_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 2 * len(cut_bundled(name)["transmitters"])
    assert all(record["wideband_path_loss_db"] is not None
               for record in records)


def leaky_and_noisy(doc):
    """In-band leakage, -70 dBFS of noise and unequal transmit powers:
    the near-far, no-signal and noise paths of a sliding campaign."""
    doc["leakage"]["park_mode"] = "in_band"
    doc["noise_power_dbfs"] = -70.0
    for tx, db in zip(doc["transmitters"], (0.0, -6.0, -12.0)):
        tx["tx_power_db"] = db


def averaging(periods):
    """leaky_and_noisy at `periods` averaging periods: a burst of
    periods + 2 PN periods, held whole at 1 and with its steady-state
    period from 2 on. The noise keeps the two apart: a noiseless fold of
    equal periods is exact, whatever their number."""
    def edit(doc):
        leaky_and_noisy(doc)
        doc["sliding"]["averaging_periods"] = periods
    return edit


def wrapped_offsets(doc):
    """In-band leakage, tx1's clock about half a 54616-sample slot ahead
    and tx3's as far behind: both slots and both bursts wrap across
    sample 0 of the period."""
    doc["leakage"]["park_mode"] = "in_band"
    doc["clocks"]["tx_offsets_s"] = [4.1e-4, 0.0, -4.1e-4]


def frames_and_noise(doc):
    """A third transmitter at -6 dB, a 300 kHz guard band and -60 dBFS
    of noise: a plan of two sweep frames, of two tones and of one."""
    doc["transmitters"].append({"id": "tx3", "position_m": [15.0, 10.0, 2.0],
                                "tx_power_db": -6.0})
    doc["frequency"]["guard_band_hz"] = 300e3
    doc["noise_power_dbfs"] = -60.0


def explicit_tones(doc):
    """Explicit tones in the reverse of the order that a 300 kHz guard
    band packs them in, and -60 dBFS of noise."""
    doc["frequency"]["tone_offsets_hz"] = [100097.65625, -199951.171875]
    doc["noise_power_dbfs"] = -60.0


# the edits of a bundled scenario that OUTPUT_DIGESTS pins
BUNDLED_EDITS = {
    "leaky-and-noisy": ("indoor_wing_sliding", leaky_and_noisy),
    "one-period": ("indoor_wing_sliding", averaging(1)),
    "two-periods": ("indoor_wing_sliding", averaging(2)),
    "wrapped-offsets": ("indoor_wing_sliding", wrapped_offsets),
    "frames-and-noise": ("courtyard_frequency", frames_and_noise),
    "explicit-tones": ("courtyard_frequency", explicit_tones),
}


# sha256 of every file that a campaign writes, per scenario: a change
# that moves any of these bytes says which fields moved, and why, and
# pins the new digests
OUTPUT_DIGESTS = {
    "indoor_wing_sliding": {
        "records.jsonl": "87d7a2959b2c44426223e937e630d025df6f57bfdce3befcf4aa3df65949f6c9",
        "heatmap_tx1.csv": "c8b4e2564074b62a623cf19796a12bc4aba753add41f181beefbeeda0ff38042",
        "heatmap_tx2.csv": "87789a1e27d99c0cc4f14e8bfa08c57012a8f02ebe74ccf5a614359162202af5",
        "heatmap_tx3.csv": "61dc79f94d73c4ed2a868e3a2892f44c96cb3b6203066946408dd8cfd197c299",
    },
    "courtyard_frequency": {
        "records.jsonl": "a8e5aec4a315d882e9211b03ab44b8c5d44710993b7186b1fe0f72f0b69167d1",
        "heatmap_tx1.csv": "8eccfcb5d1ae3ded46b7dcce26b2c8851186213d559f2133cc17ed9d22da71ee",
        "heatmap_tx2.csv": "90c4c261e6a6930518eb792dc27bece1e263e8f0922f419d5acbc374bec5663c",
    },
    "leaky-and-noisy": {
        "records.jsonl": "0727b1839f5e806b299923e2c2cc342e272068f9fcd18fa9a9c3325ace9fef48",
        "heatmap_tx1.csv": "74f64217d70d9329c487b2ad1f1febe803afd3c147582070b53d9e6afe418b8d",
        "heatmap_tx2.csv": "6e91e2999c8908e5a56f75354db359b38c3b926d2c8614b57adbffda0a2a8785",
        "heatmap_tx3.csv": "bc440c331877a7bccb00c2541d9044faee42a03fe20137a5a1043e8507de9589",
    },
    "one-period": {
        "records.jsonl": "1a03fededc275cc18f1492395200fbc07c10640499b9fc5bb5818bb80a5477c2",
        "heatmap_tx1.csv": "3b7be36a3b0a9b19b605da11668d33fae23eb4ffb3ef2f1ec835fd0aa440e3d4",
        "heatmap_tx2.csv": "183bd20f645d837e69f8cab561740bd1bd8042b83b9e31b17e3567fb3c1b4615",
        "heatmap_tx3.csv": "d776750fc75eb7032ac04849fffc47fc6a18b78b69e1204899761f7c241be2b8",
    },
    "two-periods": {
        "records.jsonl": "b288808ed6c7569cc4de2dc4f93b069b6fffded17c58702245cd83bdc833f6fc",
        "heatmap_tx1.csv": "b2f091204cf7c6144c77db3134937c1721f2a1719e1839d1c35651d1b03fee27",
        "heatmap_tx2.csv": "caa5346f9f9cd5638aa2b67db8a793bcdbab1443ad74249886038bac8581dbfe",
        "heatmap_tx3.csv": "3e0c4b675af805e32a17bbcc083fcb8a560b58fbd7436138cdf27da598b6f03e",
    },
    "wrapped-offsets": {
        "records.jsonl": "7e6471dc6c2b7ecc7e138feec8de138bdb9f813b8a1ad89b84bfa0a217086c8d",
        "heatmap_tx1.csv": "214cb79f4554a297f5eedd28a438f446e3bec0b094d9193e6c23bb6bda6303ae",
        "heatmap_tx2.csv": "4f132659b011ae4bae039f3045cc9686d77622814367c53050eead065196f16e",
        "heatmap_tx3.csv": "9695982cf2af5b85c04f29c6fdfea23283fb5858ac999b13ed23f80620d8d1f6",
    },
    "frames-and-noise": {
        "records.jsonl": "9044d6c6ec38c9d696d80581cf2260ff97e2c9f945d11984146386d8bf9dd17b",
        "heatmap_tx1.csv": "6cdd2b200dae1ac6684c9ab75fb33083c1b60292b4c86b5365e1c9472eab4add",
        "heatmap_tx2.csv": "b9f9b5149c219654fa833bbad4579c00f18678cca72e89e628f579fdcfdd2499",
        "heatmap_tx3.csv": "4d4112d745117aaa6df44b4ee553d997ede9ce3ae75a9105d762332723b9879c",
    },
    "explicit-tones": {
        "records.jsonl": "aee79cbc3370eb80e9da259829cea4b2e32a87daf70936451ebca2ba1b68b2f0",
        "heatmap_tx1.csv": "b6bb948211a672f4e837bc6aa3f52eee96ad2b099ded8448d0599bb171d69a55",
        "heatmap_tx2.csv": "cb0bead5333719fde15d9b322035ea9e247dbc4feb04fa58d837b9528ff5b18b",
    },
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_campaign_output_bytes_are_pinned(tmp_path, capsys, name):
    path = (bundled_edit(tmp_path, *BUNDLED_EDITS[name])
            if name in BUNDLED_EDITS else BUNDLED / f"{name}.json")
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    written = {file.name: hashlib.sha256(file.read_bytes()).hexdigest()
               for file in (tmp_path / "out").iterdir()}
    assert written == OUTPUT_DIGESTS[name]


# sha256 of every file that a campaign of each benchmark workload
# writes, at the workload's own seed
WORKLOAD_DIGESTS = {
    ("sliding-c9", 42): {
        "records.jsonl": "4984d88e006cd265746b997d9705e1f419110e63d836470999fab5f68dbb9473",
        "heatmap_tx1.csv": "4f7b576355d02f4719ce03a89235610b8a1c6827212ed6f16a513812d5a0f1d5",
        "heatmap_tx2.csv": "584f15060af26502cb00fc6ac2f8c7819663a426eb53fa0a22d88d4c674eabab",
        "heatmap_tx3.csv": "554fdb59361fe176a6889740b0d24acb4924d21f75266a102148cf88cdaa15d3",
    },
    ("frequency-c9", 43): {
        "records.jsonl": "71fe8508e5784d81ce5d5b0a0304c0b1086693fff9c9ce58ab008935ccf8f83a",
        "heatmap_tx1.csv": "01d08dc1c87a6b19edb5404fa6bcd5a781adf8b63817450bb5fb0ed1454fe431",
        "heatmap_tx2.csv": "c944570c74fe1435d9a043f1b93795097fe09a4dcb3bb9629e39087447bbac89",
    },
    ("sliding-nearfar", 44): {
        "records.jsonl": "92b292bc957757dc19b9b511714114fc6709e4ed34d04532959b603ceafd98cb",
        "heatmap_tx1.csv": "4c6f1afdeeefb0fb9a79421ab00ab43680f77d38cc415af814b82f0417e26af4",
        "heatmap_tx2.csv": "3d6368e7e108eb28a113804d1a80d098cf5c5f770ab214fd7629ed7a49f580e3",
        "heatmap_tx3.csv": "8382ec9afe802d65aac55cc5350511cf9c19329ee77d0c35fc4dff78867c319f",
        "heatmap_tx4.csv": "0a490405aa93830ac1dc633fcb56ac2104ba6f011d117c9e2243e49b9a1b8aef",
        "heatmap_tx5.csv": "17de0383781e314505eb1713a148a97a766de8820804f5129f8a84a7644c8629",
        "heatmap_tx6.csv": "5dc310a15a709cdcca9859a775a6fca4d56887c13d1bd9669a833580de65b15f",
    },
}


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_DIGESTS))
def test_workload_output_bytes_are_pinned(tmp_path, capsys, workload, seed):
    path = tmp_path / "scenario.json"
    cp.save_scenario(bench_scenario(workload, seed, None), path)
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    written = {file.name: hashlib.sha256(file.read_bytes()).hexdigest()
               for file in (tmp_path / "out").iterdir()}
    assert written == WORKLOAD_DIGESTS[workload, seed]


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
    # the distance's dot product overflowed to inf, and numpy once printed
    # its RuntimeWarning and source line ahead of the one-line error; the
    # coordinate is outside the +-1e7 m range
    path = bundled_edit(tmp_path, "indoor_wing_sliding", lambda doc: doc[
        "transmitters"][0]["position_m"].__setitem__(0, 1e200))
    child = run_cli_limited("validate", "--scenario", str(path))
    assert (child.returncode, child.stderr) == (
        2, "ValueError: transmitters[0].position_m[0]: 1e+200 m is outside "
           "+-1e+07 m\n")


def test_sound_freq_rejects_a_plan_by_field(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    doc = json.loads(plan_path.read_text())
    # a guard band above half the sample rate leaves the packer no tone
    for key, value in (("fft_length", 0), ("sample_rate_hz", -1e6),
                       ("tone_offsets_hz", [100e3]), ("guard_band_hz", 6e5)):
        plan_path.write_text(json.dumps(dict(doc, **{key: value})))
        code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                               "--out-dir", str(tmp_path), *capture_paths)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"ValueError: {key}")


# two tones in FFT bin 400 at no guard band: once accepted, so that both
# transmitters read the sum of their two channels
SHARED_TONES = [pytest.param([97656.25, 97656.25], id="one-tone"),
                pytest.param([97656.25, 97656.2500001], id="one-bin")]


@pytest.mark.parametrize("command", ["validate", "campaign"])
@pytest.mark.parametrize("tones", SHARED_TONES)
def test_two_scenario_tones_in_one_fft_bin_exit_2(tmp_path, capsys, command,
                                                 tones):
    path = bundled_edit(tmp_path, "courtyard_frequency",
                        lambda doc: doc["frequency"].update(
                            tone_offsets_hz=tones, guard_band_hz=0.0))
    code, _, err = run_cli(capsys, command, "--scenario", str(path),
                           *out_dir_flag(command, tmp_path / "out"))
    assert (code, err) == (2, "ValueError: frequency.tone_offsets_hz: tones "
                              "0 and 1 share FFT bin 400\n")
    assert not (tmp_path / "out" / "records.jsonl").exists()


@pytest.mark.parametrize("tones", SHARED_TONES)
def test_sound_freq_rejects_two_plan_tones_in_one_fft_bin(tmp_path, capsys,
                                                          tones):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    doc = json.loads(plan_path.read_text())
    plan_path.write_text(json.dumps(dict(doc, tone_offsets_hz=tones,
                                         guard_band_hz=0.0)))
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert (code, err) == (2, "ValueError: tone_offsets_hz: tones 0 and 1 "
                              "share FFT bin 400\n")
    assert not (tmp_path / "losses.json").exists()


def test_sound_freq_on_silent_captures_exits_2(tmp_path, capsys):
    plan_path, capture_paths = sweep_capture_files(tmp_path)
    for path in capture_paths:
        write_iq(pulse.BasebandSignal(np.zeros(4096), 1e6), path)
    code, _, err = run_cli(capsys, "sound-freq", "--plan", str(plan_path),
                           "--out-dir", str(tmp_path), *capture_paths)
    assert (code, err) == (2, "NoSignalError: no power in the tone bin of "
                              "step 0\n")
    assert not (tmp_path / "losses.json").exists()


def test_sound_sliding_on_a_silent_capture_exits_2(tmp_path, capsys):
    capture_path = sliding_capture_file(tmp_path)
    capture = pulse.read_iq(capture_path)
    write_iq(dataclasses.replace(capture, samples=np.zeros(len(capture))),
             capture_path)
    code, _, err = run_cli(capsys, "sound-sliding", "--capture",
                           str(capture_path), "--out-dir", str(tmp_path))
    assert (code, err) == (2, "NoSignalError: capture is silent in the "
                              "timing search window; no timing phase "
                              "exists\n")
    assert not (tmp_path / "profile.json").exists()


def test_sound_freq_reproduces_campaign_losses(tmp_path, capsys, monkeypatch):
    # the captures a campaign composes for one location, written to
    # files: sound-freq must read from them the campaign's records
    scenario = cp.load_scenario(sharded_scenario_file(tmp_path, "frequency"))
    scenario = dataclasses.replace(
        scenario, receiver_path=scenario.receiver_path[3:4],
        transmitters=(scenario.transmitters[0],
                      dataclasses.replace(scenario.transmitters[1],
                                          tx_power_db=-7.5)))
    [(frame, _)], _ = cp.prepare(scenario)
    compose = sweep.compose_sweep_capture
    paths = []

    def compose_and_write(channels, frame, units, seeds, **kwargs):
        rows = compose(channels, frame, units, seeds, **kwargs)
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


# each sound command's float flags, and the float fields of sound-sliding's
# --config file that replaced its other float flags, with the fields
# their values reach and values in range: those of the default capture
# and plan among them
FLOAT_FLAGS = {
    ("sound-sliding", "chip_period_s"): (
        "chip_period_s|\\S+\\.iq\\.json: sample_rate_hz", ("6e-8", "60E-9")),
    ("sound-sliding", "rolloff"): ("rolloff", ("3.5e-1", "1e0", "0.5")),
    ("sound-sliding", "detection_threshold_db"): ("detection_threshold_db",
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
    """A sound command, one of its float flags or block fields and a
    value for it: in exponent form with either sign, a spelling of NaN or
    infinity, a plain number, or a value in the flag's range."""
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
    # field its value reaches. A block field's value is the float that
    # its spelling reads as, written by json.dumps, NaN and Infinity
    # included, into a --config file
    command, flag, value = drawn
    directory = tmp_path_factory.getbasetemp() / "float-flags"
    if not directory.exists():
        directory.mkdir()
        sliding_capture_file(directory)
        sweep_capture_files(directory)
    # a floor more than about 150 dB below the peak lets the float32
    # capture's rounding through on more than half the lags: the row has
    # no signal, and the line names the threshold
    errors = ("ValueError|NoSignalError" if flag == "detection_threshold_db"
              else "ValueError")
    fields = FLOAT_FLAGS[command, flag][0]
    if not flag.startswith("--"):
        block = directory / "sliding.json"
        block.write_text(json.dumps({flag: float(value)}))
        flag, value = "--config", str(block)
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
    assert re.fullmatch(
        rf"(?:{errors}): (?:{re.escape(flag)}|{fields}): .*\n",
        stderr.getvalue()), (value, stderr.getvalue())


@pytest.mark.parametrize("command, flag, value, error", [
    # argparse took these for options: its usage block and exit 2
    ("sound-sliding", "--tx-power-db", "-1e3", None),
    ("sound-sliding", "--tx-power", "-1e3", None),
    ("sound-freq", "--tone-offset", f"{PLAN_TONE:.11e}", None),
    # these reached profile.json, losses.json and the status line as NaN
    # or Infinity, or were blamed on something else; each is outside the
    # range of the field that its flag sets
    ("sound-sliding", "--tx-power-db", "nan",
     "ValueError: --tx-power-db: nan dB is outside +-1000 dB"),
    ("sound-freq", "--tx-power-db", "1e400",
     "ValueError: --tx-power-db: inf dB is outside +-1000 dB"),
    ("sound-freq", "--tone-offset", "nan",
     "ValueError: --tone-offset: tone offset nan Hz is not part of the plan"),
    # the mean of ten such losses overflowed to Infinity, with a warning
    ("sound-freq", "--tx-power-db", "1e308",
     "ValueError: --tx-power-db: 1e+308 dB is outside +-1000 dB"),
    # the power range's ends, and one float past each
    *[(command, "--tx-power-db", repr(db), None)
      for command in ("sound-sliding", "sound-freq") for db in (1e3, -1e3)],
    *[(command, "--tx-power-db", repr(db),
       f"ValueError: --tx-power-db: {db!r} dB is outside +-1000 dB")
      for command in ("sound-sliding", "sound-freq")
      for db in (math.nextafter(1e3, math.inf),
                 math.nextafter(-1e3, -math.inf))],
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
    # a rate that contradicts samples_per_symbol / chip_period_s once
    # gave a profile
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


def test_sound_sliding_names_sample_count_for_a_short_capture(tmp_path):
    # the samples are too few for the periods read, wherever they sit
    config = sliding.SounderConfig()
    chips, taps = sliding.reference(config)
    tx = modulated(chips, 3, taps, config.chip_period_s)
    write_iq(tx, tmp_path / "capture.iq")
    code, err = run_sound_sliding(tmp_path / "capture.iq", tmp_path / "out")
    assert code == 2
    assert sidecar_error(tmp_path / "capture.iq", "sample_count").fullmatch(err)


def test_sound_capture_too_short(tmp_path):
    # the settle period plus nine, where ten are averaged
    config = sliding.SounderConfig()
    chips, taps = sliding.reference(config)
    write_iq(modulated(chips, 10, taps, config.chip_period_s),
             tmp_path / "capture.iq")
    code, err = run_sound_sliding(tmp_path / "capture.iq", tmp_path / "out")
    assert (code, err) == (2, f"ValueError: {tmp_path / 'capture.iq'}.json: "
                              f"sample_count: capture of 9219 symbols is "
                              f"shorter than 10 periods (10230 symbols)\n")
    assert not (tmp_path / "out").exists()


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
    # the fixture's captures hold one FFT window; step 3's holds a whole
    # 5000-sample step
    window = pulse.read_iq(capture_paths[3]).samples
    write_iq(pulse.BasebandSignal(np.resize(window, 5000), 1e6),
             capture_paths[3])
    raw = np.fromfile(capture_paths[3], dtype="<f4")
    raw[[2 * 77, 2 * 4500]] = value
    raw.tofile(capture_paths[3])
    code, err = run_sound_freq(plan_path, capture_paths, tmp_path / "out")
    assert (code, err) == (2, f"ValueError: {capture_paths[3]}: sample 77 is "
                              f"not finite\n")
    assert not (tmp_path / "out" / "losses.json").exists()


def at(*keys):
    """An edit that sets the value at keys of a scenario document."""
    def set_value(doc, value):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return set_value


# every ranged field of a scenario: the bundled scenarios that read it,
# the dotted path that its range error names, and the edit that puts a
# value there, alone (a list field's first item, or tap_count_range's
# most taps)
SHARED = ("indoor_wing_sliding", "courtyard_frequency")
RANGE_SITES = {
    (cp.Transmitter, "position"): (SHARED, "transmitters[0].position_m[0]",
                                    at("transmitters", 0, "position_m", 0)),
    (cp.Transmitter, "tx_power_db"): (SHARED, "transmitters[0].tx_power_db",
                                      at("transmitters", 0, "tx_power_db")),
    (cp.Scenario, "receiver_path"): (SHARED, "receiver_path_m[0][0]",
                                     at("receiver_path_m", 0, 0)),
    (cp.Scenario, "noise_power_dbfs"): (SHARED, "noise_power_dbfs",
                                        at("noise_power_dbfs")),
    **{(EnvironmentModel, name): (SHARED, f"environment.{name}",
                                  at("environment", name))
       for name in ("reference_loss_db", "path_loss_exponent",
                    "reference_distance_m", "delay_spread_scale_s",
                    "wall_loss_db", "wall_grid_spacing_m")},
    (EnvironmentModel, "tap_count_range"): (
        SHARED, "environment.tap_count_range[1]",
        at("environment", "tap_count_range", 1)),
    (cp.ClockSetup, "tx_offsets_s"): (
        ("indoor_wing_sliding",), "clocks.tx_offsets_s[0]",
        lambda doc, value: doc["clocks"].update(tx_offsets_s=[value, 0.0, 0.0])),
    **{(kind, name): (("indoor_wing_sliding",), f"{block}.{name}",
                      at(block, name))
       for block, kind in (("clocks", cp.ClockSetup),
                           ("sliding", sliding.SounderConfig),
                           ("schedule", multitx.ScheduleSetup),
                           ("leakage", multitx.LeakageModel))
       for name in [f.name for f in dataclasses.fields(kind)
                    if "range" in f.metadata and f.name != "tx_offsets_s"]},
    **{(sweep.FrequencySetup, name): (("courtyard_frequency",),
                                      f"frequency.{name}",
                                      at("frequency", name))
       for name in ("sample_rate_hz", "fft_length", "guard_band_hz",
                    "step_duration_s")},
    (sweep.FrequencySetup, "carriers_hz"): (
        ("courtyard_frequency",), "frequency.carriers_hz[0]",
        lambda doc, value: doc["frequency"].update(carriers_hz=[value])),
    (sweep.FrequencySetup, "tone_offsets_hz"): (
        ("courtyard_frequency",), "frequency.tone_offsets_hz[0]",
        lambda doc, value: doc["frequency"].update(
            tone_offsets_hz=[value, 0.0])),
}


def range_edges(kind, name):
    """Each finite end of the field's range, or the one value it also
    takes, with the next number past it."""
    lo, hi, also = field_range(kind, name)
    integers = isinstance(lo, int)
    edges = []
    for edge, outward in ((lo, -math.inf), (hi, math.inf), (also, math.inf)):
        if edge is not None and math.isfinite(edge):
            past = edge + (1 if outward > 0 else -1) if integers \
                else math.nextafter(edge, outward)
            edges.append((edge, past))
    return edges


EDGE_CASES = [pytest.param(declared(kind, field), name, path, edit, edge, past,
                           id=f"{path}={edge!r}-{name}")
              for (kind, field), (names, path, edit) in RANGE_SITES.items()
              for edge, past in range_edges(kind, field) for name in names]


def test_every_ranged_field_has_an_edge_case():
    # a field that gains a range is edited here too, or in the sidecar
    # test below
    inputs = (cp.Transmitter, cp.ClockSetup, cp.Scenario, EnvironmentModel,
              sliding.SounderConfig, multitx.ScheduleSetup,
              multitx.LeakageModel, sweep.FrequencySetup, pulse.IqSidecar)
    ranged = {(kind, f.name) for kind in inputs
              for f in dataclasses.fields(kind) if "range" in f.metadata}
    assert ranged == set(RANGE_SITES) | {
        (pulse.IqSidecar, name) for name in SIDECAR_FIELDS[1:]}


@pytest.mark.parametrize("field, name, path, edit, edge, past", EDGE_CASES)
def test_a_field_at_its_range_edge_runs_and_past_it_fails(
        tmp_path, capsys, field, name, path, edit, edge, past):
    # the next number past an edge fails validate with one line naming
    # the field and its range; the edge is in the range, and at it a
    # two-location campaign writes strict JSON records with no warning,
    # or fails on a check across fields, naming one
    bad = bundled_edit(tmp_path, name, lambda doc: edit(doc, past))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(bad))
    with pytest.raises(ValueError) as raised:
        schema.check_range(field, past, path)
    assert (code, err) == (2, f"ValueError: {raised.value}\n")
    assert re.fullmatch(rf"{re.escape(path)}: {re.escape(repr(past))}( \S+)? "
                        rf"is (not \S+ and )?(outside|above|below) .*",
                        str(raised.value))
    schema.check_range(field, edge, path)
    scenario = bundled_edit(tmp_path, name, lambda doc: edit(doc, edge))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "campaign", "--scenario", str(scenario),
                           "--out-dir", str(out))
    if code == 2:
        assert ONE_LINE_ERROR.fullmatch(err), err
        return
    assert (code, err) == (0, "")
    records = strict_records(out / "records.jsonl")
    assert len(records) == 2 * len(cut_bundled(name)["transmitters"])


@pytest.mark.parametrize("field, edge, past", [
    pytest.param(name, edge, past, id=f"{name}={edge!r}")
    for name in SIDECAR_FIELDS[1:]
    for edge, past in range_edges(pulse.IqSidecar, name)])
def test_a_sidecar_field_at_its_range_edge(tmp_path, field, edge, past):
    # past the edge, one line naming the sidecar, the field and its
    # range; the edge is in the range, and sound-sliding reads the
    # capture or names a sidecar field
    capture_path = sliding_capture_file(tmp_path)
    sidecar = pathlib.Path(f"{capture_path}.json")
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(doc, **{field: past})))
    with pytest.raises(ValueError) as raised:
        schema.check_range(declared(pulse.IqSidecar, field), past, field)
    assert run_sound_sliding(capture_path, tmp_path / "out") == (
        2, f"ValueError: {capture_path}.json: {raised.value}\n")
    schema.check_range(declared(pulse.IqSidecar, field), edge, field)
    sidecar.write_text(json.dumps(dict(doc, **{field: edge})))
    code, err = run_sound_sliding(capture_path, tmp_path / "out")
    assert code == 0 or sidecar_error(
        capture_path, "|".join(SIDECAR_FIELDS)).fullmatch(err), err
