"""Scenario-driven measurement campaigns.

A scenario places transmitters, scripts a receiver path, and names the
sounding mode. The runner synthesizes a channel per (location,
transmitter) pair, composes the multi-transmitter received signal, runs
the mode's sounder, and emits one record per pair in deterministic
location-major order. All randomness is derived from the master seed, a
location index, and the transmitter id, so single-transmitter
sub-scenarios reproduce their slice of the full run exactly, and so do
contiguous blocks of locations run in forked processes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from chansounder import multitx, schema, sliding, sweep
from chansounder.channel import (POWER_LIMIT_DB, EnvironmentModel,
                                 path_loss_db, synthesize_channel,
                                 wall_term_db)
from chansounder.exceptions import NoSignalError
from chansounder.pulse import burst_period_and_ramp, modulate

SCHEMA_VERSION = 1
MODE_SLIDING = "sliding"
MODE_FREQUENCY = "frequency"

FLAG_NO_SIGNAL = "no_signal"
FLAG_MISALIGNED = "misaligned"
# the range of every coordinate, in metres: about an Earth radius
COORDINATE_LIMIT_M = 1e7


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-(purpose, location, transmitter) seed mixing."""
    text = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << 63)


def _noise_seed(scenario, *parts) -> int | None:
    """The seed of one capture's noise, derive_seed of the master seed and
    parts, or None where the scenario adds no noise and no seed is read."""
    if scenario.noise_power_dbfs is None:
        return None
    return derive_seed(scenario.master_seed, *parts)


@dataclass(frozen=True)
class Transmitter:
    id: str
    position: tuple[float, ...] = schema.within(
        -COORDINATE_LIMIT_M, COORDINATE_LIMIT_M, "m")
    tx_power_db: float = schema.within(-POWER_LIMIT_DB, POWER_LIMIT_DB, "dB",
                                       default=0.0)
    antenna_height_note: str | None = None

    def __post_init__(self):
        schema.check_ranges(self)


@dataclass(frozen=True)
class ClockSetup:
    """Explicit per-transmitter clock offsets, else a spread to draw one
    per node from, and the receiver's offset, each within a second:
    free-running sounder clocks disagree by microseconds to
    milliseconds."""

    tx_offsets_s: tuple[float, ...] | None = schema.within(-1.0, 1.0, "s",
                                                           default=None)
    offset_std_s: float = schema.within(0.0, 1.0, "s", default=0.0)
    rx_offset_s: float = schema.within(-1.0, 1.0, "s", default=0.0)

    def __post_init__(self):
        schema.check_ranges(self)
        if self.tx_offsets_s is not None and self.offset_std_s != 0:
            raise ValueError("offset_std_s: must be 0 when tx_offsets_s "
                             "gives the offsets")


@dataclass(frozen=True)
class Scenario:
    mode: str
    transmitters: tuple[Transmitter, ...]
    receiver_path: tuple[tuple[float, ...], ...] = schema.within(
        -COORDINATE_LIMIT_M, COORDINATE_LIMIT_M, "m")
    environment: EnvironmentModel
    master_seed: int = 0
    sliding: sliding.SounderConfig = field(default_factory=sliding.SounderConfig)
    frequency: sweep.FrequencySetup = field(default_factory=sweep.FrequencySetup)
    schedule: multitx.ScheduleSetup = field(default_factory=multitx.ScheduleSetup)
    clocks: ClockSetup = field(default_factory=ClockSetup)
    leakage: multitx.LeakageModel = field(default_factory=multitx.LeakageModel)
    park_mode: str = multitx.PARK_OFF_BAND
    noise_power_dbfs: float | None = schema.within(
        -POWER_LIMIT_DB, POWER_LIMIT_DB, "dBFS", default=None)
    geo: tuple | None = None  # optional passthrough, aligned with the path

    def __post_init__(self):
        if self.mode not in (MODE_SLIDING, MODE_FREQUENCY):
            raise ValueError(f"mode: unknown mode {self.mode!r}")
        if self.park_mode not in (multitx.PARK_OFF_BAND, multitx.PARK_IN_BAND):
            raise ValueError(
                f"leakage.park_mode: unknown park mode {self.park_mode!r}")
        # a block that the mode never reads must keep its defaults, so
        # that no setting in it is accepted and then ignored
        unread = (("frequency",) if self.mode == MODE_SLIDING
                  else ("sliding", "schedule", "clocks", "leakage"))
        for name in unread:
            block = getattr(self, name)
            # park_mode is written inside the leakage block
            moved = name == "leakage" and self.park_mode != multitx.PARK_OFF_BAND
            if moved or block != type(block)():
                raise ValueError(f"{name}: not read by a {self.mode} scenario")
        schema.check_ranges(self)
        if len(self.transmitters) < 1:
            raise ValueError("transmitters: at least one transmitter required")
        if len(self.receiver_path) < 1:
            raise ValueError("receiver_path: at least one position required")
        ids = [tx.id for tx in self.transmitters]
        if len(set(ids)) != len(ids):
            raise ValueError("transmitters: ids must be unique")
        if self.geo is not None:
            if len(self.geo) != len(self.receiver_path):
                raise ValueError("geo: must align one-to-one with receiver_path")
            schema.check_finite(self.geo, "geo")
        # every position has as many coordinates, 2 or 3, as the first
        dimension = len(self.transmitters[0].position)
        expected = dimension if dimension in (2, 3) else "2 or 3"
        named = [(f"transmitters[{k}].position_m", tx.position)
                 for k, tx in enumerate(self.transmitters)]
        for name, position in named + [(f"receiver_path_m[{k}]", position)
                                       for k, position in enumerate(self.receiver_path)]:
            if len(position) != expected:
                raise ValueError(f"{name}: expected {expected} coordinates like "
                                 f"transmitters[0].position_m, got {len(position)}")


def _record(scenario: Scenario, loc_index: int, tx: Transmitter, seed: int,
            flags=(), **measured) -> dict:
    """The records.jsonl document of one (location, transmitter) pair.
    The measured fields that are not given are null."""
    position = tuple(scenario.receiver_path[loc_index])
    x, y, z = position + (0.0,) * (3 - len(position))
    return {
        "schema_version": SCHEMA_VERSION,
        "location_index": loc_index,
        "x_m": x,
        "y_m": y,
        "z_m": z,
        "geo": scenario.geo[loc_index] if scenario.geo is not None else None,
        "transmitter_id": tx.id,
        "mode": scenario.mode,
        "wideband_path_loss_db": None,
        "rms_delay_spread_s": None,
        "delay_profile": None,
        "narrowband_losses_db": None,
        "tone_offset_hz": None,
        **measured,
        "seed": seed,
        "flags": list(flags),
    }


def _tx_clock_offsets(scenario: Scenario, sample_rate: float) -> list:
    """Each transmitter's clock offset from the receiver's, in whole
    samples: explicit, or drawn once per node from its own seed."""
    clocks = scenario.clocks
    if clocks.tx_offsets_s is not None:
        if len(clocks.tx_offsets_s) != len(scenario.transmitters):
            raise ValueError("clocks.tx_offsets_s: one offset per transmitter")
        offsets = list(clocks.tx_offsets_s)
    elif clocks.offset_std_s > 0.0:
        offsets = [
            float(np.random.default_rng(
                derive_seed(scenario.master_seed, "clock", tx.id)
            ).normal(scale=clocks.offset_std_s))
            for tx in scenario.transmitters
        ]
    else:
        offsets = [0.0] * len(scenario.transmitters)
    # the receiver's own error shifts every transmitter the opposite way
    return [int(round((off - clocks.rx_offset_s) * sample_rate))
            for off in offsets]


def _burst_periods(config: sliding.SounderConfig, chips, taps) -> int:
    """The PN periods of each transmitted burst: the receiver's settle
    periods, the averaged periods and one trailing period. Raises when
    the burst is longer than the longest slot, naming pn_degree when
    even the shortest burst (averaging_periods 1) is, else
    averaging_periods. Checked before the schedule is built, which would
    blame its guard_fraction for the slot that such a burst needs."""
    period, ramp = burst_period_and_ramp(chips, taps)
    for name, averaged in (("pn_degree", 1),
                           ("averaging_periods", config.averaging_periods)):
        periods = sliding.SETTLE_PERIODS + averaged + 1
        burst = periods * period + ramp
        if burst > multitx.MAX_SLOT_SAMPLES:
            raise ValueError(
                f"{name}: a burst of {periods} PN periods is {burst} samples, "
                f"above the {multitx.MAX_SLOT_SAMPLES}-sample slot limit")
    return periods


def _prepare_sliding(scenario: Scenario) -> tuple:
    """Chips, taps, per-transmitter bursts in period form, TDMA schedule
    and clock offsets in samples."""
    config = scenario.sliding
    try:
        chips, taps = sliding.reference(config)
        periods = _burst_periods(config, chips, taps)
    except ValueError as exc:
        raise schema.nested("sliding", exc) from None
    burst = modulate(chips, periods, taps, config.chip_period_s)
    sample_rate = burst.sample_rate
    try:
        schedule = multitx.build_schedule(
            scenario.schedule, len(scenario.transmitters), len(burst),
            config.samples_per_symbol, sample_rate)
    except ValueError as exc:
        raise schema.nested("schedule", exc) from None
    # each transmitter's burst, in period form
    waveforms = [replace(burst, samples=burst.samples
                         * 10.0 ** (tx.tx_power_db / 20.0))
                 for tx in scenario.transmitters]
    return (chips, taps, waveforms, schedule,
            _tx_clock_offsets(scenario, sample_rate))


def _late_tap(tx: Transmitter, loc_index: int, late: float, bound: str):
    """The error for a tap drawn late, past bound."""
    return ValueError(
        f"environment.delay_spread_scale_s: the channel drawn for "
        f"transmitter {tx.id!r} at receiver_path_m[{loc_index}] has a tap "
        f"{late} s late, {bound}")


def _sound_sliding(scenario: Scenario, prepared: tuple, loc_index: int,
                   channels: list) -> list:
    """Compose one location's TDMA capture from its channels, then
    measure it: (flags, measured fields) per transmitter."""
    chips, taps, waveforms, schedule, offsets = prepared
    # a tap later than this spills into the next slot's segment; checked
    # before the capture is built
    room = schedule.slot_samples - len(waveforms[0])
    for tx, chan in zip(scenario.transmitters, channels):
        lag = round(chan.delays[-1] * waveforms[0].sample_rate)
        if lag > room:
            raise _late_tap(tx, loc_index, chan.delays[-1],
                            f"{lag} samples, more than the {room} samples "
                            f"that its slot leaves after the burst")
    capture = multitx.compose_received(
        waveforms, channels, offsets, schedule,
        leak_gain=scenario.leakage.gain(scenario.park_mode),
        noise_power_dbfs=scenario.noise_power_dbfs,
        seed=_noise_seed(scenario, "noise", loc_index))
    return _receive_sliding(scenario, (chips, taps, schedule), capture)


def _receive_sliding(scenario: Scenario, receiver: tuple, capture) -> list:
    """The receive half of a sliding location: the capture, a
    BasebandSignal on its own rate and time axis, cut into its slots,
    flagged misaligned by its guard/core power ratio, and each slot
    measured. It reads the receiver's (chips, taps, schedule) and no
    transmit burst, channel, seed or clock offset."""
    chips, taps, schedule = receiver
    segments = multitx.segment_capture(capture, schedule)
    flags = ((FLAG_MISALIGNED,) if multitx.misaligned(capture.samples, schedule)
             else ())
    profiles = sliding.measure_sliding(
        segments, chips, taps, scenario.sliding,
        [tx.tx_power_db for tx in scenario.transmitters])
    return [(flags + (FLAG_NO_SIGNAL,), {}) if isinstance(profile, NoSignalError)
            else (flags, dict(wideband_path_loss_db=profile["path_loss_db"],
                              rms_delay_spread_s=profile["rms_delay_spread_s"],
                              delay_profile=profile))
            for profile in profiles]


def _prepare_frequency(scenario: Scenario) -> tuple:
    """The sweep frames, each with its unit tones, and one frame's rows.
    A carrier step longer than the longest slot raises, naming
    step_duration_s, before the unit tones are built; the FFT window's
    range keeps it within one."""
    samples = scenario.frequency.step_samples
    try:
        if samples > multitx.MAX_SLOT_SAMPLES:
            raise ValueError(
                f"step_duration_s: a carrier step of {samples:.6g} samples "
                f"is above the {multitx.MAX_SLOT_SAMPLES}-sample slot limit")
        frames = multitx.build_frequency_plan(scenario.frequency,
                                              len(scenario.transmitters))
    except ValueError as exc:
        raise schema.nested("frequency", exc) from None
    frames = [(frame, sweep.unit_tones(frame)) for frame in frames]
    # every frame has one shape, so one frame's rows, allocated once per
    # process, take them all at every location
    frame, units = frames[0]
    return frames, np.empty((len(frame.carriers_hz), units.shape[1]),
                            dtype=np.complex128)


def _sound_frequency(scenario: Scenario, prepared: tuple, loc_index: int,
                     channels: list) -> list:
    """Compose and read each sweep frame of one location: (flags,
    measured fields) per transmitter, the k-th of which sends the k-th
    tone of the frames taken in order."""
    frames, rows = prepared
    # the tones are unit tones: the transmitter's level is a gain
    channels = [replace(chan, gains=chan.gains * 10.0 ** (tx.tx_power_db / 20.0))
                for tx, chan in zip(scenario.transmitters, channels)]
    powers = [tx.tx_power_db for tx in scenario.transmitters]
    tones = [tone for frame, _ in frames for tone in frame.tone_offsets_hz]
    losses = []
    for frame_index, (frame, units) in enumerate(frames):
        sent = slice(len(losses), len(losses) + len(frame.tone_offsets_hz))
        seeds = [_noise_seed(scenario, "cap", loc_index, frame_index, step)
                 for step in range(len(frame.carriers_hz))]
        rows = sweep.compose_sweep_capture(
            channels[sent], frame, units, seeds,
            noise_power_dbfs=scenario.noise_power_dbfs, out=rows)
        losses += sweep.narrowband_losses(
            rows, frame, frame.tone_offsets_hz, powers[sent])
    return [((FLAG_NO_SIGNAL,), dict(tone_offset_hz=tone)) if None in loss
            else ((), dict(wideband_path_loss_db=float(np.mean(loss)),
                           narrowband_losses_db=list(loss), tone_offset_hz=tone))
            for tone, loss in zip(tones, losses)]


def _delay_axis(scenario: Scenario) -> tuple:
    """The mode's delay grid and the delay that each drawn tap must stay
    below, with its name: a tap one PN period late aliases onto lag 0 of
    the correlator, and one a carrier step late is heard in the next."""
    if scenario.mode == MODE_FREQUENCY:
        return 1e-9, scenario.frequency.step_duration_s, "carrier step"
    chip_s = scenario.sliding.chip_period_s
    return chip_s, ((1 << scenario.sliding.pn_degree) - 1) * chip_s, "PN period"


def _check_path_losses(scenario: Scenario) -> None:
    """Every (transmitter, location) pair's path loss must lie within
    +-POWER_LIMIT_DB.

    Each environment coefficient's range keeps its own term within that
    range. So where the pair's wall term is out of range by itself, the
    error names the wall grid spacing if that is further from 1 m, in
    orders of magnitude, than the pair's distance is. Else it names the
    reference loss if it weighs at least as much as the distance and
    wall terms together, else the pair's position farther from the
    origin.
    """
    env = scenario.environment
    for k, tx in enumerate(scenario.transmitters):
        for j, position in enumerate(scenario.receiver_path):
            try:
                loss_db = path_loss_db(env, tx.position, position)
            except ValueError:
                raise ValueError(f"receiver_path_m[{j}]: coincides with "
                                 f"transmitters[{k}].position_m") from None
            if abs(loss_db) <= POWER_LIMIT_DB:
                continue
            walls = wall_term_db(env, tx.position, position) > POWER_LIMIT_DB
            if walls and abs(math.log10(env.wall_grid_spacing_m)) > abs(
                    math.log10(math.dist(tx.position, position))):
                field = "environment.wall_grid_spacing_m"
            elif not walls and abs(env.reference_loss_db) >= abs(
                    loss_db - env.reference_loss_db):
                field = "environment.reference_loss_db"
            elif max(map(abs, tx.position)) >= max(map(abs, position)):
                field = f"transmitters[{k}].position_m"
            else:
                field = f"receiver_path_m[{j}]"
            raise ValueError(
                f"{field}: the path loss from transmitter {tx.id!r} to "
                f"receiver_path_m[{j}] is {loss_db:.6g} dB, outside "
                f"+-{POWER_LIMIT_DB:g} dB")


def prepare(scenario: Scenario):
    """Everything a campaign derives from its scenario before the first
    location, once every pair's path loss and the delay spread are
    checked: chips, taps, slot geometry and clock offsets, or the sweep
    frames and rows. Raises ValueError naming the dotted field at fault."""
    _check_path_losses(scenario)
    _, bound_s, name = _delay_axis(scenario)
    scale = scenario.environment.delay_spread_scale_s
    if scale >= bound_s:
        axis = (", the unambiguous delay range"
                if scenario.mode == MODE_SLIDING else "")
        raise ValueError(f"environment.delay_spread_scale_s: {scale} s is "
                         f"not below the {bound_s} s {name}{axis}")
    if scenario.mode == MODE_SLIDING:
        return _prepare_sliding(scenario)
    return _prepare_frequency(scenario)


def _run_block(scenario: Scenario, prepared: tuple, locations: range) -> list:
    """The records of a block of locations. At each, every transmitter's
    channel is drawn once, on the mode's delay grid, and its taps are
    checked before the mode's sounder composes and measures."""
    sound = _sound_sliding if scenario.mode == MODE_SLIDING else _sound_frequency
    grid_s, bound_s, name = _delay_axis(scenario)
    records = []
    for loc_index in locations:
        seeds = [derive_seed(scenario.master_seed, "chan", loc_index, tx.id)
                 for tx in scenario.transmitters]
        channels = [synthesize_channel(
            scenario.environment, tx.position, scenario.receiver_path[loc_index],
            seed, delay_grid_s=grid_s)[0]
            for tx, seed in zip(scenario.transmitters, seeds)]
        for tx, chan in zip(scenario.transmitters, channels):
            if chan.delays[-1] >= bound_s:
                raise _late_tap(tx, loc_index, chan.delays[-1],
                                f"not below the {bound_s} s {name}")
        results = sound(scenario, prepared, loc_index, channels)
        records += [_record(scenario, loc_index, tx, seed, flags, **measured)
                    for tx, seed, (flags, measured)
                    in zip(scenario.transmitters, seeds, results)]
    return records


def _fork_block(scenario: Scenario, prepared: tuple,
                locations: range) -> tuple:
    """Run one location block in a forked child, which inherits the
    prepared state and pickles its records, or the exception that
    stopped it, into a pipe. Returns (pid, read end of the pipe)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            try:
                outcome = (True, _run_block(scenario, prepared, locations))
            except BaseException as exc:
                outcome = (False, exc)
            data = pickle.dumps(outcome)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)  # never the parent's exit path
    os.close(write_fd)
    return pid, read_fd


def _receive_block(read_fd: int, locations: range) -> list:
    """A child's records, unpickled as they stream in, or its exception
    raised here."""
    with os.fdopen(read_fd, "rb", closefd=False) as pipe:
        try:
            ok, value = pickle.load(pipe)
        except EOFError:
            raise ChildProcessError(
                f"the worker for locations {locations.start}-"
                f"{locations.stop - 1} ended without sending its records") from None
    if not ok:
        raise value
    return value


def run_campaign(scenario: Scenario, workers: int = 1) -> list:
    """Run the scenario and return its records, the JSON documents that
    export_records writes, in location-major order.

    The receiver path is cut into ``workers`` contiguous location blocks
    (at most one per location). This process prepares the scenario once
    and runs the first block; a forked child runs each other block, and
    its records are read back in block order. Seeds depend only on the
    master seed, location and transmitter, so the records are identical
    at any worker count. Off Linux the whole path runs here: forking
    after numpy has started its BLAS threads is checked only on Linux
    (macOS's Accelerate is not fork-safe). workers is at least 1, as
    cli._campaign_workers gives it.
    """
    prepared = prepare(scenario)
    count = len(scenario.receiver_path)
    if not sys.platform.startswith("linux"):
        workers = 1
    workers = min(workers, count)
    bounds = [count * k // workers for k in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(scenario, prepared, block))
        records = _run_block(scenario, prepared, blocks[0])
        for (_, read_fd), block in zip(children, blocks[1:]):
            records += _receive_block(read_fd, block)
        return records
    except BaseException:
        for pid, _ in children:  # no child outlives a failed campaign
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)


def export_records(records, path) -> None:
    """Write one JSON document per line."""
    path = Path(path)
    try:
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def export_heatmap(records, transmitter_id: str, path) -> None:
    """Per-location path losses for one transmitter, one of the records'
    own, as plottable CSV."""
    rows = [r for r in records if r["transmitter_id"] == transmitter_id]
    path = Path(path)
    try:
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x_m", "y_m", "path_loss_db"])
            for record in rows:
                loss = record["wideband_path_loss_db"]
                writer.writerow([record["x_m"], record["y_m"],
                                 "nan" if loss is None else loss])
    except OSError as exc:
        raise OSError(f"cannot write heat map to {path}: {exc}") from exc


def scenario_from_json(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError(f"scenario: expected an object, got {doc!r}")
    doc = dict(doc)
    if "schema_version" not in doc:
        raise ValueError("schema_version: required field is missing")
    version = doc.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: unsupported version {version!r} "
                         f"(expected {SCHEMA_VERSION})")
    if "park_mode" in doc:
        raise ValueError("park_mode: unknown field (it belongs in leakage)")
    leakage = doc.get("leakage")
    if isinstance(leakage, dict) and "park_mode" in leakage:
        doc["leakage"] = dict(leakage)
        doc["park_mode"] = doc["leakage"].pop("park_mode")
    return schema.from_json(Scenario, doc)


def scenario_to_json(scenario: Scenario) -> dict:
    doc = schema.to_json(scenario)
    doc["leakage"]["park_mode"] = doc.pop("park_mode")
    return {"schema_version": SCHEMA_VERSION, "mode": doc.pop("mode"),
            "master_seed": doc.pop("master_seed"), **doc}


def load_scenario(path) -> Scenario:
    return scenario_from_json(schema.read_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(scenario), indent=2) + "\n")
