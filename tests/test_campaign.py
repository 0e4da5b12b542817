import errno
import json
import math
import os
import pathlib
import re
import signal
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import campaign as cp
from chansounder import multitx, pulse, sliding, sweep
from chansounder.channel import EnvironmentModel, MultipathChannel
from chansounder.exceptions import NoSignalError
from chansounder.pulse import (BasebandSignal, burst_period_and_ramp,
                               estimate_timing_phase, modulate,
                               recover_symbols)

from helpers import (assert_no_child_left, bench_scenario, failing_channel_draw,
                     frequency_blocks, oracle_measure_sliding,
                     oracle_timing_phase, ranged, received, tap_gains,
                     tap_lags, use_oracle_sweep)


def small_environment(**overrides):
    settings = dict(reference_loss_db=40.0, path_loss_exponent=2.2,
                    delay_spread_scale_s=7e-8, tap_count_range=(2, 5))
    settings.update(overrides)
    return EnvironmentModel(**settings)


def small_scenario(mode="sliding", locations=3, **overrides):
    settings = dict(
        mode=mode,
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.0)),
                      cp.Transmitter("tx2", (20.0, 10.0, 2.0))),
        receiver_path=tuple((2.0 + 1.5 * i, 3.0, 1.2) for i in range(locations)),
        environment=small_environment(),
        master_seed=7,
    )
    settings.update(overrides)
    return cp.Scenario(**settings)


def test_scenario_validation_messages():
    with pytest.raises(ValueError, match="mode"):
        small_scenario(mode="ultrasound")
    with pytest.raises(ValueError, match="transmitters"):
        small_scenario(transmitters=())
    with pytest.raises(ValueError, match="receiver_path"):
        small_scenario(receiver_path=())
    with pytest.raises(ValueError, match="unique"):
        small_scenario(transmitters=(cp.Transmitter("a", (0, 0, 0)),
                                     cp.Transmitter("a", (1, 1, 1))))
    with pytest.raises(ValueError, match="geo"):
        small_scenario(geo=("p1",))
    with pytest.raises(ValueError, match=r"^leakage\.park_mode: unknown park "
                                         r"mode 'sideways'$"):
        small_scenario(park_mode="sideways")


def test_scenario_json_roundtrip(tmp_path):
    scenario = small_scenario()
    target = tmp_path / "scenario.json"
    cp.save_scenario(scenario, target)
    loaded = cp.load_scenario(target)
    assert cp.scenario_to_json(loaded) == cp.scenario_to_json(scenario)


def test_scenario_load_reports_field_paths(tmp_path):
    doc = cp.scenario_to_json(small_scenario())
    del doc["transmitters"][0]["id"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"transmitters\[0\]\.id"):
        cp.load_scenario(broken)
    bad_env = cp.scenario_to_json(small_scenario())
    bad_env["environment"]["path_loss_exponent"] = -1.0
    broken.write_text(json.dumps(bad_env))
    with pytest.raises(ValueError, match="environment"):
        cp.load_scenario(broken)
    broken.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        cp.load_scenario(broken)


def mutated_doc(where, key, value):
    doc = cp.scenario_to_json(small_scenario())
    target = doc
    for step in where:
        target = target[step]
    target[key] = value
    return doc


@pytest.mark.parametrize("where, key, name", [
    pytest.param(*case, id=case[-1]) for case in [
        (("sliding",), "averging_periods", "sliding.averging_periods"),
        (("environment",), "rng_seed", "environment.rng_seed"),
        (("transmitters", 1), "power_db", "transmitters[1].power_db"),
        (("leakage",), "parked_db", "leakage.parked_db"),
        ((), "park_mode", "park_mode"),
        ((), "seed", "seed")]
])
def test_scenario_load_rejects_unknown_fields(where, key, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}: unknown field"):
        cp.scenario_from_json(mutated_doc(where, key, 3))


def test_scenario_load_rejects_other_schema_versions():
    for version in (99, 0, "1", None):
        with pytest.raises(ValueError, match="^schema_version: unsupported"):
            cp.scenario_from_json(mutated_doc((), "schema_version", version))
    doc = cp.scenario_to_json(small_scenario())
    del doc["schema_version"]
    with pytest.raises(ValueError, match="^schema_version: required"):
        cp.scenario_from_json(doc)


@pytest.mark.parametrize("where, key, value, name", [
    pytest.param(*case, id=f"{case[-1]}={case[2]!r}") for case in [
        (("transmitters", 0), "tx_power_db", None, "transmitters[0].tx_power_db"),
        (("transmitters", 0), "tx_power_db", "loud", "transmitters[0].tx_power_db"),
        ((), "receiver_path_m", [[1.0, 2.0, 0.0], 5], "receiver_path_m[1]"),
        (("transmitters", 1), "position_m", "here", "transmitters[1].position_m"),
        (("sliding",), "pn_degree", [10], "sliding.pn_degree"),
        ((), "environment", [], "environment"),
        # no rounding, no bools as numbers, no numbers or nulls as strings
        (("sliding",), "pn_degree", 10.7, "sliding.pn_degree"),
        (("sliding",), "averaging_periods", True, "sliding.averaging_periods"),
        (("transmitters", 0), "id", None, "transmitters[0].id"),
        (("transmitters", 0), "tx_power_db", "3", "transmitters[0].tx_power_db"),
        (("transmitters", 1), "tx_power_db", False, "transmitters[1].tx_power_db"),
        ((), "master_seed", 7.0, "master_seed"),
        # tuple items are checked one by one, and fixed-length tuples by length
        (("environment",), "tap_count_range", [3, 4, 6],
         "environment.tap_count_range")]
])
def test_scenario_load_names_badly_typed_fields(where, key, value, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}: expected"):
        cp.scenario_from_json(mutated_doc(where, key, value))


def test_scenario_positions_share_one_dimension():
    flat = small_scenario(
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0)),
                      cp.Transmitter("tx2", (20.0, 10.0))),
        receiver_path=((2.0, 3.0), (3.5, 3.0)))
    assert [r["z_m"] for r in cp.run_campaign(flat)] == [0.0] * 4
    with pytest.raises(ValueError, match=r"^receiver_path_m\[1\]: expected 2"):
        small_scenario(transmitters=flat.transmitters,
                       receiver_path=((2.0, 3.0), (3.5, 3.0, 1.0)))
    with pytest.raises(ValueError, match=r"^transmitters\[0\]\.position_m: "
                                         r"expected 2 or 3"):
        small_scenario(transmitters=(cp.Transmitter("tx1", (0.0,)),))


def test_scenario_load_takes_whole_numbers_as_floats():
    doc = mutated_doc(("transmitters", 0), "tx_power_db", 3)
    assert cp.scenario_from_json(doc).transmitters[0].tx_power_db == 3.0
    with pytest.raises(ValueError, match=r"^transmitters\[0\]\.tx_power_db: "
                                         r"number too large"):
        cp.scenario_from_json(
            mutated_doc(("transmitters", 0), "tx_power_db", 10 ** 400))


SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda path: path.name)
def test_bundled_scenario_saves_back_byte_for_byte(path, tmp_path):
    target = tmp_path / path.name
    cp.save_scenario(cp.load_scenario(path), target)
    assert target.read_bytes() == path.read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sounder_configs(draw):
    """A sliding block, each field drawn from its range, with an even span
    and a filter of at most MAX_FILTER_TAPS taps."""
    kind = sliding.SounderConfig
    sps = draw(ranged(kind, "samples_per_symbol"))
    return kind(
        *(draw(ranged(kind, name)) for name in ("chip_period_s", "pn_degree")),
        draw(st.none() | st.integers(0, 1 << 13)),
        *(draw(ranged(kind, name)) for name in (
            "averaging_periods", "detection_threshold_db", "rolloff")),
        draw(ranged(kind, "span_symbols",
                    max_value=(pulse.MAX_FILTER_TAPS - 1) // sps).map(
                        lambda span: span - span % 2)), sps)


@st.composite
def scenarios(draw):
    """Scenarios whose every number is drawn from its field's range, save
    infinities, which strict JSON does not hold."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                        max_size=4, unique=True))
    point = st.tuples(*[ranged(cp.Transmitter, "position")] * 3)
    transmitters = tuple(
        cp.Transmitter(tx_id, draw(point),
                       draw(ranged(cp.Transmitter, "tx_power_db")),
                       draw(st.none() | st.text(max_size=12)))
        for tx_id in ids)
    path = tuple(draw(st.lists(point, min_size=1, max_size=4)))
    low = draw(ranged(EnvironmentModel, "tap_count_range", max_value=6))
    environment = EnvironmentModel(
        *(draw(ranged(EnvironmentModel, name)) for name in (
            "reference_loss_db", "path_loss_exponent", "reference_distance_m",
            "delay_spread_scale_s")),
        (low, draw(ranged(EnvironmentModel, "tap_count_range", min_value=low,
                          max_value=9))),
        draw(ranged(EnvironmentModel, "wall_loss_db")),
        draw(st.none() | ranged(EnvironmentModel, "wall_grid_spacing_m")))
    mode = draw(st.sampled_from([cp.MODE_SLIDING, cp.MODE_FREQUENCY]))
    offsets = ranged(cp.ClockSetup, "tx_offsets_s")
    blocks = {
        "sliding": sounder_configs(),
        "frequency": frequency_blocks(),
        "schedule": st.builds(
            multitx.ScheduleSetup,
            st.none() | ranged(multitx.ScheduleSetup, "slot_length_s"),
            ranged(multitx.ScheduleSetup, "guard_fraction")),
        # explicit offsets, or a spread to draw them from
        "clocks": st.builds(cp.ClockSetup, st.lists(offsets, max_size=4).map(tuple),
                            st.just(0.0), ranged(cp.ClockSetup, "rx_offset_s"))
        | st.builds(cp.ClockSetup, st.none(),
                    ranged(cp.ClockSetup, "offset_std_s"),
                    ranged(cp.ClockSetup, "rx_offset_s")),
        "leakage": st.builds(
            multitx.LeakageModel,
            ranged(multitx.LeakageModel, "parked_leakage_db"),
            ranged(multitx.LeakageModel, "inband_null_leakage_db")),
        "park_mode": st.sampled_from([multitx.PARK_OFF_BAND,
                                      multitx.PARK_IN_BAND]),
        "noise_power_dbfs": st.none() | ranged(cp.Scenario, "noise_power_dbfs"),
        "geo": st.none() | st.lists(st.none() | st.text(max_size=6) | finite,
                                    min_size=len(path),
                                    max_size=len(path)).map(tuple),
    }
    # each optional block that the mode reads is either drawn or left at
    # its default; the blocks it never reads keep their defaults
    unread = (["frequency"] if mode == cp.MODE_SLIDING
              else ["sliding", "schedule", "clocks", "leakage", "park_mode"])
    chosen = draw(st.sets(st.sampled_from(sorted(set(blocks) - set(unread)))))
    return cp.Scenario(
        mode=mode,
        transmitters=transmitters, receiver_path=path,
        environment=environment, master_seed=draw(st.integers(0, 2**63 - 1)),
        **{name: draw(blocks[name]) for name in chosen})


@given(scenarios())
def test_scenario_json_roundtrip_property(scenario):
    doc = json.loads(json.dumps(cp.scenario_to_json(scenario), allow_nan=False))
    assert cp.scenario_from_json(doc) == scenario
    # a block left at its defaults may be omitted from the file
    for name in ("sliding", "frequency", "schedule", "clocks"):
        block = getattr(scenario, name)
        if block == type(block)():
            del doc[name]
    assert cp.scenario_from_json(doc) == scenario


def test_record_count_and_ordering():
    scenario = small_scenario(locations=4)
    records = cp.run_campaign(scenario)
    assert len(records) == 4 * 2
    expected = [(loc, tx) for loc in range(4) for tx in ("tx1", "tx2")]
    assert [(r["location_index"], r["transmitter_id"])
            for r in records] == expected
    for record in records:
        assert record["mode"] == "sliding"
        assert record["delay_profile"] is not None
        assert record["rms_delay_spread_s"] >= 0.0


def test_campaign_determinism():
    scenario = small_scenario(locations=3)
    one = cp.run_campaign(scenario)
    two = cp.run_campaign(scenario)
    assert one == two


# five locations, so worker counts 2, 3 and 8 cut the path unevenly: a
# sliding scenario with clock offsets, in-band leakage, noise and a
# distant transmitter that is lost (no_signal) at the last location, and
# a two-frame frequency scenario with noise
SHARDED = {
    "sliding": small_scenario(
        locations=5, clocks=cp.ClockSetup(offset_std_s=0.3e-6),
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.0)),
                      cp.Transmitter("tx2", (20.0, 10.0, 2.0)),
                      cp.Transmitter("far", (4000.0, 3.0, 1.2))),
        leakage=multitx.LeakageModel(inband_null_leakage_db=30.0),
        park_mode=multitx.PARK_IN_BAND, noise_power_dbfs=-85.0),
    "frequency": small_scenario(
        mode="frequency", locations=5,
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
                      cp.Transmitter("tx2", (30.0, 20.0, 3.7)),
                      cp.Transmitter("tx3", (15.0, 30.0, 2.0))),
        frequency=sweep.FrequencySetup(guard_band_hz=300e3),
        noise_power_dbfs=-90.0),
}


@pytest.mark.parametrize("mode", sorted(SHARDED))
def test_sharded_campaign_matches_serial(mode):
    scenario = SHARDED[mode]
    serial = [json.dumps(r) for r in cp.run_campaign(scenario)]
    assert len(serial) == 5 * len(scenario.transmitters)
    for workers in (2, 3, 8):
        sharded = cp.run_campaign(scenario, workers=workers)
        assert [json.dumps(r) for r in sharded] == serial
        assert_no_child_left()


def test_campaign_runs_in_process_off_linux(monkeypatch):
    scenario = SHARDED["sliding"]
    serial = cp.run_campaign(scenario)
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.delattr(os, "fork")  # a fork attempt would now fail
    assert cp.run_campaign(scenario, workers=3) == serial


class Halt(BaseException):
    """Stands in for an interrupt that no handler may swallow."""


@pytest.mark.parametrize("location, error", [
    (0, ValueError("environment: no channel here")),   # this process's block
    (4, ValueError("environment: no channel here")),   # the last worker's
    (0, Halt("stopped at the first location")),
])
def test_failed_sharded_campaign_raises_and_leaves_no_child(
        monkeypatch, location, error):
    scenario = SHARDED["sliding"]
    failing_channel_draw(monkeypatch, scenario.receiver_path[location], error)
    with pytest.raises(type(error), match=str(error)):
        cp.run_campaign(scenario, workers=3)
    assert_no_child_left()


def test_worker_that_sends_nothing_is_named(monkeypatch):
    class Unpicklable(ValueError):
        """Local to this test, so a worker cannot pickle it back."""

    scenario = SHARDED["sliding"]
    failing_channel_draw(monkeypatch, scenario.receiver_path[4],
                         Unpicklable("lost"))
    with pytest.raises(ChildProcessError, match="^the worker for locations "
                       "2-4 ended without sending its records$"):
        cp.run_campaign(scenario, workers=2)
    assert_no_child_left()


def test_failed_fork_closes_its_pipe_and_kills_the_first_worker(
        monkeypatch):
    # the second of two forks fails: its pipe's two ends are closed, the
    # worker forked first is killed and reaped, and the error propagates
    scenario = SHARDED["sliding"]
    fork, kill = os.fork, os.kill
    forked, killed = [], []

    def fork_once():
        if forked:
            raise OSError(errno.EAGAIN, "no process for the second worker")
        forked.append(fork())
        return forked[-1]

    def recorded_kill(pid, signum):
        killed.append((pid, signum))
        kill(pid, signum)

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "kill", recorded_kill)
    descriptors = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="no process for the second worker"):
        cp.run_campaign(scenario, workers=3)
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert killed == [(forked[0], signal.SIGKILL)]
    assert_no_child_left()


def test_master_seed_changes_output():
    scenario = small_scenario(locations=2)
    base = cp.run_campaign(scenario)
    reseeded = cp.run_campaign(replace(scenario, master_seed=99))
    rerun = cp.run_campaign(replace(scenario, master_seed=99))
    assert reseeded == rerun
    assert base != reseeded


# the fields of a records.jsonl line, in the order they are written
RECORD_KEYS = ["schema_version", "location_index", "x_m", "y_m", "z_m", "geo",
               "transmitter_id", "mode", "wideband_path_loss_db",
               "rms_delay_spread_s", "delay_profile", "narrowband_losses_db",
               "tone_offset_hz", "seed", "flags"]


def test_frequency_mode_records():
    scenario = small_scenario(mode="frequency", locations=2)
    records = cp.run_campaign(scenario)
    assert len(records) == 4
    for record in records:
        assert list(record) == RECORD_KEYS
        assert record["mode"] == "frequency"
        assert len(record["narrowband_losses_db"]) == 10
        assert record["tone_offset_hz"] is not None
        assert min(record["narrowband_losses_db"]) \
            <= record["wideband_path_loss_db"] \
            <= max(record["narrowband_losses_db"])
        assert record["rms_delay_spread_s"] is None


def test_single_tx_subscenario_is_bit_identical():
    scenario = small_scenario(locations=3)
    full = cp.run_campaign(scenario)
    for keep in scenario.transmitters:
        sub = small_scenario(locations=3, transmitters=(keep,))
        alone = cp.run_campaign(sub)
        matched = [r for r in full if r["transmitter_id"] == keep.id]
        assert matched == alone


@given(seed=st.integers(0, 2**32), tx_count=st.integers(2, 3),
       locations=st.integers(1, 2))
@settings(max_examples=10)
def test_multi_tx_records_equal_single_tx_subscenarios_property(
        seed, tx_count, locations):
    # off-band parking, zero clock offsets and no noise: each transmitter
    # owns its slot alone, so its records cannot depend on the others
    sites = ((2.0, 2.0, 1.1), (19.0, 6.0, 2.4), (36.0, 2.0, 1.2))
    transmitters = tuple(cp.Transmitter(f"tx{k + 1}", sites[k],
                                        tx_power_db=-3.0 * k)
                         for k in range(tx_count))
    scenario = small_scenario(locations=locations, transmitters=transmitters,
                              master_seed=seed)
    full = cp.run_campaign(scenario)
    for tx in transmitters:
        alone = cp.run_campaign(replace(scenario, transmitters=(tx,)))
        assert [doc for doc in full if doc["transmitter_id"] == tx.id] == alone


def test_geo_passthrough():
    scenario = small_scenario(
        locations=2, geo=({"lat": 40.0, "lon": -74.0}, {"lat": 40.1, "lon": -74.2}))
    records = cp.run_campaign(scenario)
    assert records[0]["geo"] == {"lat": 40.0, "lon": -74.0}
    assert records[-1]["geo"] == {"lat": 40.1, "lon": -74.2}


def test_noisy_campaign_flags_lost_transmitters():
    # noise strong enough to bury the distant transmitter
    scenario = small_scenario(
        locations=2,
        transmitters=(cp.Transmitter("near", (2.5, 3.0, 1.2)),
                      cp.Transmitter("far", (4000.0, 3.0, 1.2))),
        environment=small_environment(path_loss_exponent=3.5),
        noise_power_dbfs=-40.0)
    records = cp.run_campaign(scenario)
    assert len(records) == 4  # flagged, never dropped
    far = [r for r in records if r["transmitter_id"] == "far"]
    assert all(cp.FLAG_NO_SIGNAL in r["flags"] for r in far)
    assert all(r["wideband_path_loss_db"] is None for r in far)
    near = [r for r in records if r["transmitter_id"] == "near"]
    assert all(r["wideband_path_loss_db"] is not None for r in near)


def test_export_records_roundtrip(tmp_path):
    records = cp.run_campaign(small_scenario(locations=3))
    target = tmp_path / "records.jsonl"
    cp.export_records(records, target)
    docs = [json.loads(line) for line in target.read_text().splitlines()]
    assert docs == records
    assert all(list(doc) == RECORD_KEYS for doc in docs)


def test_export_heatmap(tmp_path):
    scenario = small_scenario(locations=5)
    records = cp.run_campaign(scenario)
    target = tmp_path / "heatmap.csv"
    cp.export_heatmap(records, "tx1", target)
    lines = target.read_text().splitlines()
    assert lines[0] == "x_m,y_m,path_loss_db"
    assert len(lines) == 6
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)


def test_heatmap_monotone_in_deterministic_environment(tmp_path):
    # single deterministic tap per channel: loss is pure log-distance
    scenario = small_scenario(
        locations=8,
        transmitters=(cp.Transmitter("tx1", (0.0, 3.0, 1.2)),),
        environment=small_environment(delay_spread_scale_s=0.0,
                                      tap_count_range=(1, 1)))
    records = cp.run_campaign(scenario)
    losses = [r["wideband_path_loss_db"] for r in records]
    assert all(b >= a for a, b in zip(losses, losses[1:]))
    truths = [40.0 + 22.0 * math.log10(math.dist((0.0, 3.0, 1.2), p))
              for p in scenario.receiver_path]
    np.testing.assert_allclose(losses, truths, atol=0.05)


def test_central_transmitter_has_lower_mean_loss():
    line = tuple((float(x), 0.0, 1.0) for x in range(0, 40, 2))
    scenario = small_scenario(
        locations=len(line),
        transmitters=(cp.Transmitter("corner", (0.0, 0.0, 2.0)),
                      cp.Transmitter("center", (20.0, 0.0, 2.0))),
        receiver_path=line)
    records = cp.run_campaign(scenario)
    mean = {tx: np.mean([r["wideband_path_loss_db"] for r in records
                         if r["transmitter_id"] == tx])
            for tx in ("corner", "center")}
    assert mean["center"] < mean["corner"]


def test_drawn_clock_offsets_stay_within_guard():
    # small NTP-style offsets drawn per node: sounding survives, no flags
    scenario = small_scenario(
        locations=3, clocks=cp.ClockSetup(offset_std_s=2e-6))
    records = cp.run_campaign(scenario)
    assert all(not r["flags"] for r in records)
    assert all(r["wideband_path_loss_db"] is not None for r in records)
    again = cp.run_campaign(scenario)
    assert records == again


def test_receiver_offset_equivalent_to_shifting_transmitters():
    # the receiver being late by d is the same capture as every
    # transmitter being early by d
    delta = 1.2e-6
    via_rx = small_scenario(
        locations=2, clocks=cp.ClockSetup(tx_offsets_s=(0.0, 0.0),
                                          rx_offset_s=delta))
    via_tx = small_scenario(
        locations=2, clocks=cp.ClockSetup(tx_offsets_s=(-delta, -delta)))
    assert cp.run_campaign(via_rx) == cp.run_campaign(via_tx)


def test_frequency_records_do_not_move_with_the_transmit_power():
    # the unit tones once carried only the path loss, so a transmitter
    # 10 dB louder recorded a loss 10 dB higher
    scenario = small_scenario(mode="frequency", locations=2)
    first, second = scenario.transmitters
    louder = replace(scenario, transmitters=(
        replace(first, tx_power_db=10.0), second))
    for base, loud in zip(cp.run_campaign(scenario),
                          cp.run_campaign(louder), strict=True):
        assert loud["wideband_path_loss_db"] == pytest.approx(
            base["wideband_path_loss_db"], abs=1e-9)
        assert loud["narrowband_losses_db"] == pytest.approx(
            base["narrowband_losses_db"], abs=1e-9)


def test_frequency_mode_spills_into_extra_frames():
    # more transmitters than one frame's tone capacity: the planner packs
    # them into several time frames, every transmitter still measured
    many = tuple(cp.Transmitter(f"tx{i}", (5.0 * i, 3.0 * (i % 3), 1.5))
                 for i in range(8))
    scenario = small_scenario(
        mode="frequency", locations=2, transmitters=many,
        frequency=sweep.FrequencySetup(guard_band_hz=140e3))
    records = cp.run_campaign(scenario)
    assert len(records) == 16
    tones = {r["transmitter_id"]: r["tone_offset_hz"] for r in records}
    assert len(set(tones.values())) < len(many)  # frames reuse tone slots
    for record in records:
        assert len(record["narrowband_losses_db"]) == 10


def test_frequency_chain_matches_per_tap_oracle(monkeypatch):
    # three transmitters behind a 300 kHz guard band fill two frames, with
    # noise on: records must equal, byte for byte, those of a chain that
    # evaluates the tone per tap, takes one FFT per tone and seeds its
    # generator up front
    three = (cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
             cp.Transmitter("tx2", (30.0, 20.0, 3.7)),
             cp.Transmitter("tx3", (15.0, 30.0, 2.0), tx_power_db=-3.0))
    scenario = small_scenario(
        mode="frequency", locations=4, transmitters=three,
        environment=small_environment(delay_spread_scale_s=2.5e-7,
                                      tap_count_range=(1, 8)),
        frequency=sweep.FrequencySetup(guard_band_hz=300e3),
        noise_power_dbfs=-90.0)
    frames, _ = cp.prepare(scenario)
    assert len(frames) == 2
    got = [json.dumps(r) for r in cp.run_campaign(scenario)]
    use_oracle_sweep(monkeypatch)
    want = [json.dumps(r) for r in cp.run_campaign(scenario)]
    assert got == want


def count_tone_evaluations(monkeypatch) -> list:
    """The tone offsets whose unit tones are computed from here on, one
    entry per evaluation."""
    computed = []
    unit_tones = sweep.unit_tones

    def counting(frame):
        tones = unit_tones(frame)
        computed.extend(frame.tone_offsets_hz)
        return tones

    monkeypatch.setattr(sweep, "unit_tones", counting)
    return computed


def test_cold_frequency_campaign_computes_each_tone_once(monkeypatch):
    computed = count_tone_evaluations(monkeypatch)
    records = cp.run_campaign(small_scenario(mode="frequency", locations=3))
    tones = {r["tone_offset_hz"] for r in records}
    assert len(tones) == 2
    assert sorted(computed) == sorted(tones)


def test_seventeen_tone_campaign_computes_each_tone_once(monkeypatch):
    # 17 tones in one frame once cycled through a 16-entry tone cache, so
    # that every location computed every tone again
    many = tuple(cp.Transmitter(f"tx{i}", (3.0 * i + 1.0, 2.0 * (i % 4), 1.5))
                 for i in range(17))
    scenario = small_scenario(mode="frequency", locations=3, transmitters=many)
    computed = count_tone_evaluations(monkeypatch)
    records = cp.run_campaign(scenario)
    assert len(records) == 3 * 17
    tones = {r["tone_offset_hz"] for r in records}
    assert len(tones) == 17
    assert sorted(computed) == sorted(tones)


@pytest.mark.parametrize("mode", [cp.MODE_SLIDING, cp.MODE_FREQUENCY])
def test_noise_seeds_are_derived_only_with_noise(monkeypatch, mode):
    # without noise a campaign derives only its channel seeds; with noise
    # also one per sliding location, or one per location and carrier step
    purposes = []
    derive = cp.derive_seed

    def counted(master_seed, purpose, *parts):
        purposes.append(purpose)
        return derive(master_seed, purpose, *parts)

    monkeypatch.setattr(cp, "derive_seed", counted)
    quiet = small_scenario(mode=mode, locations=3)
    records = cp.run_campaign(quiet)
    assert purposes == ["chan"] * 6
    noisy = cp.run_campaign(replace(quiet, noise_power_dbfs=-60.0))
    noise = (["noise"] * 3 if mode == cp.MODE_SLIDING
             else ["cap"] * 3 * len(quiet.frequency.carriers_hz))
    assert sorted(purposes[6:]) == sorted(["chan"] * 6 + noise)
    assert len(noisy) == len(records)


def test_sliding_receive_half_reads_no_channel_seed_or_offset(monkeypatch):
    # fed the captures that a campaign composed with clock offsets,
    # in-band leakage and noise, each on its own rate and time axis, the
    # receive half measures the campaign's records, flags included, from
    # the receiver's chips, taps and schedule alone, with no transmit
    # burst, under a scenario with another seed, no clock offsets and no
    # noise
    scenario = small_scenario(
        clocks=cp.ClockSetup(tx_offsets_s=(2e-6, -3e-7)),
        leakage=multitx.LeakageModel(inband_null_leakage_db=30.0),
        park_mode=multitx.PARK_IN_BAND, noise_power_dbfs=-60.0)
    captures = []
    compose = multitx.compose_received

    def kept(*args, **kwargs):
        captures.append(compose(*args, **kwargs))
        return captures[-1]

    monkeypatch.setattr(multitx, "compose_received", kept)
    records = cp.run_campaign(scenario)
    chips, taps, _, schedule, _ = cp.prepare(scenario)
    blind = replace(scenario, master_seed=0, clocks=cp.ClockSetup(),
                    noise_power_dbfs=None)
    measured = [{**fields, "flags": list(flags)} for capture in captures
                for flags, fields in cp._receive_sliding(
                    blind, (chips, taps, schedule), capture)]
    assert len(measured) == len(records) == 6
    # every location is misaligned, and one pair has no signal
    assert [record["flags"] for record in records][:2] == [
        [cp.FLAG_MISALIGNED], [cp.FLAG_MISALIGNED, cp.FLAG_NO_SIGNAL]]
    assert [{**record, **fields} for record, fields in zip(records, measured)] \
        == records


@pytest.mark.parametrize("workers", [1, 2])
def test_a_burst_held_in_a_guard_is_misaligned(workers):
    # with guards of 0.45 of a 491524-sample slot, tx1's clock runs
    # 110592 samples (half a guard) ahead, so its burst lies wholly in the
    # receiver's head guard and the core is silent: once read as a ratio
    # of 0.0, so that the records said only no_signal
    bundled = cp.load_scenario(SCENARIO_DIR / "indoor_wing_sliding.json")
    scenario = replace(
        bundled, transmitters=bundled.transmitters[:1],
        receiver_path=bundled.receiver_path[:2],
        schedule=replace(bundled.schedule, guard_fraction=0.45),
        clocks=cp.ClockSetup(tx_offsets_s=(0.00165888,)))
    records = cp.run_campaign(scenario, workers=workers)
    assert [record["flags"] for record in records] \
        == [[cp.FLAG_MISALIGNED, cp.FLAG_NO_SIGNAL]] * 2


def traced_peak_bytes(scenario, prepared):
    """The peak of traced memory while every location of scenario runs in
    this process from its prepared state, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cp._run_block(scenario, prepared, range(len(scenario.receiver_path)))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_sliding_location_holds_one_capture():
    # a location's capture and the segments that view it go before the
    # next location's channels are drawn, and the noise is drawn through
    # a 128 KiB buffer: about 1.2 captures at the peak, not the 2.5 of a
    # capture kept across locations beside a capture-length noise rail
    transmitters = tuple(cp.Transmitter(f"tx{k}", (3.0 * k, 10.0 - k, 1.0))
                         for k in range(3))
    scenario = small_scenario(transmitters=transmitters,
                              noise_power_dbfs=-40.0)
    prepared = cp.prepare(scenario)
    capture_bytes = prepared[3].period_samples * 16  # complex128
    assert traced_peak_bytes(scenario, prepared) < 1.5 * capture_bytes


def test_a_sweep_location_holds_one_frame_of_rows():
    # a frame's rows, one FFT window of 1024 of each carrier step's 5000
    # samples, are allocated once by prepare, so only the bin read's one
    # FFT of them is traced: about one frame of rows at the peak, not the
    # two of rows allocated at each location
    scenario = small_scenario(mode=cp.MODE_FREQUENCY, noise_power_dbfs=-40.0)
    scenario = replace(scenario, frequency=replace(scenario.frequency,
                                                   fft_length=1024))
    prepared = cp.prepare(scenario)
    [(frame, units)], _ = prepared
    rows_bytes = len(frame.carriers_hz) * units.shape[1] * 16
    assert units.shape[1] == 1024
    assert traced_peak_bytes(scenario, prepared) < 1.5 * rows_bytes


def test_the_timing_search_holds_one_rail_at_a_time(monkeypatch):
    # the search filters and scores the real rail, then the imaginary rail
    # in the same buffers: a rail, the bank's outputs and one product,
    # about 3.1 blocks of rows x N * sps floats at the peak on six
    # transmitters' criterion-9 segments, not the 6.0 of both rails at once
    transmitters = tuple(cp.Transmitter(f"tx{k}", (3.0 * k, 10.0 - k, 1.0))
                         for k in range(6))
    scenario = small_scenario(transmitters=transmitters, locations=1)
    peaks = []  # in blocks

    def traced(stack, chips, taps, **kwargs):
        tracemalloc.start()
        try:
            phases = estimate_timing_phase(stack, chips, taps, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = len(stack) * chips.period_length \
            * taps.samples_per_symbol * 8  # float64
        peaks.append(peak / block_bytes)
        return phases

    monkeypatch.setattr(sliding, "estimate_timing_phase", traced)
    records = cp.run_campaign(scenario, workers=1)
    assert len(records) == 6 and not any(r["flags"] for r in records)
    [blocks] = peaks
    assert blocks <= 3.5


def prepared_bytes(scenario):
    """The bytes that campaign.prepare holds for scenario, traced from
    before it starts to its return, and its traced peak, after an
    untraced first call, so that what a process allocates once is not
    counted."""
    cp.prepare(scenario)
    tracemalloc.start()
    try:
        prepared = cp.prepare(scenario)
        held, peak = tracemalloc.get_traced_memory()
        del prepared
        return held, peak
    finally:
        tracemalloc.stop()


def test_prepared_bursts_do_not_grow_with_the_averaging_periods():
    # each transmitter's burst is held in period form, its ramps and three
    # PN periods, however many periods it sends: 30 more periods once
    # held 30 more per transmitter, about 6 MB for these three
    transmitters = tuple(cp.Transmitter(f"tx{k}", (3.0 * k, 10.0 - k, 1.0))
                         for k in range(3))
    short, long = (
        prepared_bytes(small_scenario(
            transmitters=transmitters,
            sliding=sliding.SounderConfig(averaging_periods=periods)))
        for periods in (10, 40))
    chips, taps = sliding.reference(sliding.SounderConfig())
    period, _ = burst_period_and_ramp(chips, taps)
    bound = len(transmitters) * period * 16  # complex128
    assert abs(long[0] - short[0]) < bound
    assert abs(long[1] - short[1]) < bound


def test_fixture_scenarios_load(tmp_path):
    root = SCENARIO_DIR
    indoor = cp.load_scenario(root / "indoor_wing_sliding.json")
    assert indoor.mode == "sliding"
    assert len(indoor.transmitters) == 3
    outdoor = cp.load_scenario(root / "courtyard_frequency.json")
    assert outdoor.mode == "frequency"
    assert len(outdoor.transmitters) == 2


def test_silent_noise_floor_roundtrips(tmp_path):
    # no noise is null, in strict JSON
    scenario = small_scenario(noise_power_dbfs=None)
    target = tmp_path / "scenario.json"
    cp.save_scenario(scenario, target)
    assert '"noise_power_dbfs": null' in target.read_text()
    assert cp.load_scenario(target) == scenario


@pytest.mark.parametrize("parked_db, inband_db", [(math.inf, 25.0),
                                                 (12.0, math.inf)])
def test_leakage_settings_roundtrip(tmp_path, parked_db, inband_db):
    # either attenuation may be infinite, no leakage, which is saved as
    # null in strict JSON; an infinite in-band one was once saved as
    # Infinity, which the loader then rejected
    scenario = small_scenario(
        leakage=multitx.LeakageModel(parked_leakage_db=parked_db,
                                     inband_null_leakage_db=inband_db),
        park_mode=multitx.PARK_IN_BAND)
    target = tmp_path / "scenario.json"
    cp.save_scenario(scenario, target)
    doc = json.loads(target.read_text(),
                     parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert doc["leakage"] == {
        "parked_leakage_db": None if parked_db == math.inf else parked_db,
        "inband_null_leakage_db": None if inband_db == math.inf else inband_db,
        "park_mode": multitx.PARK_IN_BAND}
    assert cp.load_scenario(target) == scenario


def test_receive_chain_matches_full_convolution_oracle(monkeypatch):
    # five criterion-9 locations with clock offsets, in-band leakage and
    # noise: every segment must give the lags and the no-signal outcome
    # of a chain that matched-filters with a full np.convolve and averages
    # the periods after filtering, and its gains to rounding (the folded
    # recovery averages first, so the last bits differ)
    scenario = cp.Scenario(
        mode="sliding",
        transmitters=(cp.Transmitter("tx1", (2.0, 2.0, 1.1)),
                      cp.Transmitter("tx2", (19.0, 6.0, 2.4)),
                      cp.Transmitter("tx3", (36.0, 2.0, 1.2))),
        receiver_path=tuple((float(x), 2.0, 1.2) for x in range(1, 40, 8)),
        environment=EnvironmentModel(reference_loss_db=40.0,
                                     path_loss_exponent=2.8,
                                     delay_spread_scale_s=9e-8,
                                     tap_count_range=(3, 6),
                                     wall_loss_db=3.0, wall_grid_spacing_m=6.0),
        master_seed=42,
        clocks=cp.ClockSetup(offset_std_s=0.3e-6),
        leakage=multitx.LeakageModel(inband_null_leakage_db=30.0),
        park_mode=multitx.PARK_IN_BAND, noise_power_dbfs=-85.0)
    measure = sliding.measure_sliding
    outcomes = []

    def checked(stack, chips, taps, config, tx_powers_db):
        # the stack's rows, each measured alone from a copy by the oracle
        profiles = measure(stack, chips, taps, config, tx_powers_db)
        for row, tx_power_db, got in zip(stack.samples, tx_powers_db,
                                         profiles, strict=True):
            segment = BasebandSignal(row.copy(), stack.sample_rate,
                                     stack.origin_time)
            try:
                expected = oracle_measure_sliding(segment, chips, taps, config,
                                                  tx_power_db)
            except NoSignalError:
                expected = None
            if isinstance(got, NoSignalError):
                assert expected is None
                outcomes.append(None)
                continue
            assert expected is not None
            assert np.array_equal(tap_lags(got), tap_lags(expected))
            np.testing.assert_allclose(tap_gains(got), tap_gains(expected),
                                       rtol=1e-12, atol=0)
            assert got["path_loss_db"] == pytest.approx(
                expected["path_loss_db"], rel=0, abs=1e-10)
            assert got["rms_delay_spread_s"] == pytest.approx(
                expected["rms_delay_spread_s"], rel=1e-9, abs=0)
            outcomes.append(got)
        return profiles

    monkeypatch.setattr(sliding, "measure_sliding", checked)
    records = cp.run_campaign(scenario)
    assert len(outcomes) == len(records) == 15
    assert sum(o is not None for o in outcomes) >= 10


def searched_phases(monkeypatch, scenario) -> tuple:
    """Run the scenario's campaign with every timing search checked
    against oracle_timing_phase; the phases found, in order, and the
    record count."""
    estimate = sliding.estimate_timing_phase
    phases = []

    def checked(stack, chips, taps, skip_symbols=0):
        found = estimate(stack, chips, taps, skip_symbols=skip_symbols)
        for row, phase in zip(stack.samples, found, strict=True):
            segment = BasebandSignal(row.copy(), stack.sample_rate,
                                     stack.origin_time)
            assert phase == oracle_timing_phase(segment, chips, taps,
                                                skip_symbols)
            phases.append(phase)
        return found

    monkeypatch.setattr(sliding, "estimate_timing_phase", checked)
    return phases, len(cp.run_campaign(scenario))


def test_timing_search_matches_fft_oracle_on_bundled_walk(monkeypatch):
    # 20 locations of the bundled indoor walk: the closed-form phase of
    # every segment must be the phase that the per-phase FFT search picks
    scenario = cp.load_scenario(SCENARIO_DIR / "indoor_wing_sliding.json")
    scenario = replace(scenario, receiver_path=scenario.receiver_path[:20])
    phases, records = searched_phases(monkeypatch, scenario)
    assert len(phases) == records == 60


@pytest.mark.parametrize("workload", ["sliding-c9", "sliding-nearfar"])
def test_filter_bank_search_matches_fft_oracle_on_bench_walks(monkeypatch,
                                                              workload):
    # 20 locations of each sliding benchmark workload at a seed that no
    # other test uses: on every segment the filter-bank search must pick
    # the phase of a full np.convolve and per-phase FFTs
    scenario = bench_scenario(workload, 2718, 20)
    phases, records = searched_phases(monkeypatch, scenario)
    assert len(phases) == records == 20 * len(scenario.transmitters)


def thread_cpu_ticks():
    """utime + stime, in clock ticks, of each thread of this process."""
    ticks = {}
    for stat in pathlib.Path("/proc/self/task").glob("*/stat"):
        try:
            # the fields after the parenthesised name start at field 3,
            # state; utime and stime are fields 14 and 15
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the thread ended
            continue
        ticks[int(stat.parent.name)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads per-thread CPU times from /proc")
def test_blas_pool_stays_asleep(chips10, rrc_taps):
    # the timing search's filter-bank products and the recovery's dots are
    # small enough that OpenBLAS runs them on the calling thread: its pool
    # threads, which would take CPU from the other campaign process,
    # gain no CPU time over 200 searches and recoveries and a campaign
    config = sliding.SounderConfig()
    burst = modulate(chips10, config.averaging_periods + 2, rrc_taps,
                     config.chip_period_s)
    channel = MultipathChannel(gains=[1.0, 0.3j, -0.1],
                               delays=np.array([0, 2, 7]) * config.chip_period_s)
    capture = received(burst, channel)
    # three rows, as a campaign location stacks its segments
    stack = replace(capture, samples=np.broadcast_to(
        capture.samples, (3, len(capture))))
    skip = chips10.period_length
    # OpenBLAS stops its pool before a fork and starts it again at the
    # first product large enough to share; that product's threads then
    # spin for a while before they sleep
    big = np.ones((256, 256))
    big @ big
    time.sleep(0.5)
    before = thread_cpu_ticks()
    if len(before) < 2:
        pytest.skip("this process runs no thread besides the main one")
    for _ in range(200):
        phases = estimate_timing_phase(stack, chips10, rrc_taps, skip)
        recover_symbols(stack, chips10, rrc_taps, phases,
                        config.averaging_periods, skip)
    cp.run_campaign(small_scenario(locations=4))
    after = thread_cpu_ticks()
    main = os.getpid()
    woken = {tid: after[tid] - ticks for tid, ticks in before.items()
             if tid != main and tid in after and after[tid] > ticks}
    assert woken == {}
