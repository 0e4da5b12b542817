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
from chansounder.channel import EnvironmentModel, path_loss_db, synthesize_channel
from chansounder.exceptions import NoSignalError
from chansounder.pulse import BasebandSignal, burst_period_and_ramp, modulate

SCHEMA_VERSION = 1
MODE_SLIDING = "sliding"
MODE_FREQUENCY = "frequency"

FLAG_NO_SIGNAL = "no_signal"
FLAG_MISALIGNED = "misaligned"


def _power_of_ten(exponent: float) -> float:
    """10 ** exponent, or inf where that overflows a float."""
    try:
        return 10.0 ** exponent
    except OverflowError:
        return math.inf


def has_amplitude(power_db: float) -> bool:
    """Whether a power in dB has a finite, nonzero linear amplitude,
    10 ** (power_db / 20): the range of a transmitter's tx_power_db."""
    return 0.0 < _power_of_ten(power_db / 20.0) < math.inf


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
    position: tuple[float, ...]
    tx_power_db: float = 0.0
    antenna_height_note: str | None = None

    def __post_init__(self):
        if not has_amplitude(self.tx_power_db):
            raise ValueError(f"tx_power_db: {self.tx_power_db} dB has no "
                             f"finite, nonzero linear amplitude")


@dataclass(frozen=True)
class ClockSetup:
    tx_offsets_s: tuple[float, ...] | None = None  # explicit per-transmitter offsets
    offset_std_s: float = 0.0          # else drawn per node from this spread
    rx_offset_s: float = 0.0

    def __post_init__(self):
        if self.offset_std_s < 0:
            raise ValueError("offset_std_s: must be nonnegative")
        if self.tx_offsets_s is not None and self.offset_std_s != 0:
            raise ValueError("offset_std_s: must be 0 when tx_offsets_s "
                             "gives the offsets")


@dataclass(frozen=True)
class Scenario:
    mode: str
    transmitters: tuple[Transmitter, ...]
    receiver_path: tuple[tuple[float, ...], ...]
    environment: EnvironmentModel
    master_seed: int = 0
    sliding: sliding.SounderConfig = field(default_factory=sliding.SounderConfig)
    frequency: sweep.FrequencySetup = field(default_factory=sweep.FrequencySetup)
    schedule: multitx.ScheduleSetup = field(default_factory=multitx.ScheduleSetup)
    clocks: ClockSetup = field(default_factory=ClockSetup)
    leakage: multitx.LeakageModel = field(default_factory=multitx.LeakageModel)
    park_mode: str = multitx.PARK_OFF_BAND
    noise_power_dbfs: float | None = None
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


def _check_burst_samples(config: sliding.SounderConfig, chips, taps) -> None:
    """Raise, before modulate allocates the burst, when it would be longer
    than the longest slot: naming pn_degree when even the shortest burst
    (averaging_periods 1) is, else averaging_periods."""
    period, ramp = burst_period_and_ramp(chips, taps)
    for name, periods in (("pn_degree", 1 + 2),
                          ("averaging_periods", config.averaging_periods + 2)):
        burst = periods * period + ramp
        if burst > multitx.MAX_SLOT_SAMPLES:
            raise ValueError(
                f"{name}: a burst of {periods} PN periods is {burst} samples, "
                f"above the {multitx.MAX_SLOT_SAMPLES}-sample slot limit")


def _prepare_sliding(scenario: Scenario) -> tuple:
    """Chips, taps, per-transmitter waveforms, TDMA schedule and clock
    offsets in samples."""
    config = scenario.sliding
    try:
        chips, taps = sliding.reference(config)
        _check_burst_samples(config, chips, taps)
    except ValueError as exc:
        raise schema.nested("sliding", sliding.SounderConfig, exc) from None
    # a tap one PN period late aliases onto lag 0 of the correlator
    pn_period_s = chips.period_length * config.chip_period_s
    if scenario.environment.delay_spread_scale_s >= pn_period_s:
        raise ValueError(
            f"environment.delay_spread_scale_s: "
            f"{scenario.environment.delay_spread_scale_s} s is not below the "
            f"{pn_period_s} s PN period, the unambiguous delay range")
    burst = modulate(chips, config.averaging_periods + 2, taps,
                     config.chip_period_s)
    sample_rate = burst.sample_rate
    try:
        schedule = multitx.build_schedule(
            scenario.schedule, len(scenario.transmitters), len(burst),
            config.samples_per_symbol, sample_rate)
    except ValueError as exc:
        raise schema.nested("schedule", multitx.ScheduleSetup, exc) from None
    waveforms = [
        BasebandSignal(samples=burst.samples * 10.0 ** (tx.tx_power_db / 20.0),
                       sample_rate=sample_rate, origin_time=burst.origin_time)
        for tx in scenario.transmitters
    ]
    return (chips, taps, waveforms, schedule,
            _tx_clock_offsets(scenario, sample_rate))


def _run_sliding(scenario: Scenario, prepared: tuple, locations: range) -> list:
    config = scenario.sliding
    chips, taps, waveforms, schedule, offsets = prepared
    pn_period_s = chips.period_length * config.chip_period_s
    # every waveform is a modulate burst, periodic between its ramps
    period, ramp = burst_period_and_ramp(chips, taps)
    leak_gain = scenario.leakage.gain(scenario.park_mode)
    records = []
    for loc_index in locations:
        position = scenario.receiver_path[loc_index]
        scene = []
        seeds = []
        for tx, waveform, offset in zip(scenario.transmitters, waveforms, offsets):
            seed = derive_seed(scenario.master_seed, "chan", loc_index, tx.id)
            seeds.append(seed)
            chan, _ = synthesize_channel(scenario.environment, tx.position,
                                         position, seed,
                                         delay_grid_s=config.chip_period_s)
            if chan.delays[-1] >= pn_period_s:  # checked before any capture is built
                raise ValueError(
                    f"environment.delay_spread_scale_s: the channel drawn for "
                    f"transmitter {tx.id!r} at receiver_path_m[{loc_index}] "
                    f"has a tap {chan.delays[-1]} s late, not below the "
                    f"{pn_period_s} s PN period")
            scene.append(multitx.SceneTransmitter(
                waveform=waveform, channel=chan, clock_offset_samples=offset))
        capture = multitx.compose_received(
            scene, schedule, leak_gain=leak_gain,
            noise_power_dbfs=scenario.noise_power_dbfs,
            seed=_noise_seed(scenario, "noise", loc_index),
            period=period, ramp=ramp)
        segmented = multitx.segment_capture(capture, schedule,
                                            waveforms[0].sample_rate,
                                            waveforms[0].origin_time)
        location_flags = (FLAG_MISALIGNED,) if segmented.misaligned else ()
        profiles = sliding.measure_sliding(
            segmented.segments, chips, taps, config,
            [tx.tx_power_db for tx in scenario.transmitters])
        # one capture at a time: this one goes before the next draws
        del capture, segmented
        for tx, profile, seed in zip(scenario.transmitters, profiles, seeds):
            if isinstance(profile, NoSignalError):
                records.append(_record(scenario, loc_index, tx, seed,
                                       location_flags + (FLAG_NO_SIGNAL,)))
                continue
            records.append(_record(
                scenario, loc_index, tx, seed, location_flags,
                wideband_path_loss_db=profile["path_loss_db"],
                rms_delay_spread_s=profile["rms_delay_spread_s"],
                delay_profile=profile))
    return records


def _check_step_samples(setup: sweep.FrequencySetup) -> None:
    """Raise, before the unit tones are built, when a carrier step would
    be longer than the longest slot: naming fft_length when even the
    shortest step (one FFT window) is, else step_duration_s."""
    for name, samples in (
            ("fft_length", setup.fft_length),
            ("step_duration_s", setup.step_duration_s * setup.sample_rate_hz)):
        if samples > multitx.MAX_SLOT_SAMPLES:
            raise ValueError(
                f"{name}: a carrier step of {samples:.6g} samples is above "
                f"the {multitx.MAX_SLOT_SAMPLES}-sample slot limit")


def _prepare_frequency(scenario: Scenario) -> list:
    """The sweep frames, each with its unit tones: transmitter k sends
    the k-th tone of the frames taken in order."""
    try:
        _check_step_samples(scenario.frequency)
        frames = multitx.build_frequency_plan(scenario.frequency,
                                              len(scenario.transmitters))
    except ValueError as exc:
        raise schema.nested("frequency", sweep.FrequencySetup, exc) from None
    return [(frame, sweep.unit_tones(frame)) for frame in frames]


def _normal_power(loss_db: float) -> bool:
    """Whether the linear power 10 ** (-loss_db / 10) is a positive,
    normal float."""
    return sys.float_info.min <= _power_of_ten(-loss_db / 10.0) < math.inf


def _power_ceiling_db(samples: int) -> float:
    """The highest power in dB whose sum over samples samples is a
    finite float."""
    return 10.0 * math.log10(sys.float_info.max / samples)


def _check_path_losses(scenario: Scenario,
                       capture_samples: int | None = None) -> None:
    """Every (transmitter, location) pair's path loss must have a positive,
    normal linear power, or the channel drawn for the pair overflows or
    has no nonzero tap gain.

    The error names the environment coefficient that is out of that range
    by itself (the reference loss, 10 * exponent dB per decade, or the
    loss of one wall), else the reference loss if it weighs at least as
    much as the distance and wall terms together, else the pair's
    position farther from the origin.

    Given a sliding capture's length, capture_samples, each pair's
    received power, tx_power_db less the path loss, summed over that many
    samples must also be a finite float, or the capture's slot power
    sums overflow; the error then names the transmitter's tx_power_db.
    A sweep's unit tones carry the transmitter power only in dB.
    """
    env = scenario.environment
    coefficients = (("reference_loss_db", env.reference_loss_db),
                    ("path_loss_exponent", 10.0 * env.path_loss_exponent),
                    ("wall_loss_db", env.wall_loss_db))
    ceiling_db = (math.inf if capture_samples is None else
                  _power_ceiling_db(capture_samples))
    for k, tx in enumerate(scenario.transmitters):
        for j, position in enumerate(scenario.receiver_path):
            try:
                loss_db = path_loss_db(env, tx.position, position)
            except ValueError:
                raise ValueError(f"receiver_path_m[{j}]: coincides with "
                                 f"transmitters[{k}].position_m") from None
            except OverflowError:  # more wall crossings than a float holds
                loss_db = math.inf
            if _normal_power(loss_db):
                if tx.tx_power_db - loss_db > ceiling_db:
                    raise ValueError(
                        f"transmitters[{k}].tx_power_db: {tx.tx_power_db:.6g} "
                        f"dB less the {loss_db:.6g} dB path loss to "
                        f"receiver_path_m[{j}] is "
                        f"{tx.tx_power_db - loss_db:.6g} dB, whose power "
                        f"summed over the {capture_samples}-sample capture "
                        f"overflows a float")
                continue
            culprits = [name for name, db in coefficients
                        if not _normal_power(abs(db))]
            if culprits:
                field = f"environment.{culprits[0]}"
            elif abs(env.reference_loss_db) >= abs(loss_db - env.reference_loss_db):
                field = "environment.reference_loss_db"
            elif max(map(abs, tx.position)) >= max(map(abs, position)):
                field = f"transmitters[{k}].position_m"
            else:
                field = f"receiver_path_m[{j}]"
            raise ValueError(
                f"{field}: the path loss from transmitter {tx.id!r} to "
                f"receiver_path_m[{j}] is {loss_db:.6g} dB, whose linear "
                f"power is not a positive, normal float")


def prepare(scenario: Scenario):
    """Everything a campaign derives from its scenario before the first
    location: chips, taps, slot geometry and clock offsets, or the sweep
    frames with their unit tones, once every pair's path loss (and in
    sliding mode its received power over the capture the schedule sets)
    is checked, and the noise power summed over one capture (a sliding
    schedule's period, or one carrier step), which must be a finite float
    for the noise draw. Raises ValueError naming the dotted field at
    fault."""
    if scenario.mode == MODE_SLIDING:
        prepared = _prepare_sliding(scenario)
        samples = prepared[3].period_samples  # the schedule's
        _check_path_losses(scenario, samples)
    else:
        _check_path_losses(scenario)
        prepared = _prepare_frequency(scenario)
        setup = scenario.frequency
        samples = round(setup.step_duration_s * setup.sample_rate_hz)
    noise_db = scenario.noise_power_dbfs
    if noise_db is not None and noise_db > _power_ceiling_db(samples):
        raise ValueError(f"noise_power_dbfs: {noise_db:.6g} dBFS summed over "
                         f"the {samples}-sample capture overflows a float")
    return prepared


def _run_frequency(scenario: Scenario, frames: list, locations: range) -> list:
    records = []
    rows = None
    for loc_index in locations:
        position = scenario.receiver_path[loc_index]
        channels = []
        seeds = []
        for tx in scenario.transmitters:
            seed = derive_seed(scenario.master_seed, "chan", loc_index, tx.id)
            seeds.append(seed)
            chan, _ = synthesize_channel(scenario.environment, tx.position,
                                         position, seed, delay_grid_s=1e-9)
            channels.append(chan)

        tones, losses = [], []
        for frame_index, (frame, units) in enumerate(frames):
            members = range(len(tones), len(tones) + len(frame.tone_offsets_hz))
            entries = [(tone, channels[k])
                       for tone, k in zip(frame.tone_offsets_hz, members)]
            step_seeds = [_noise_seed(scenario, "cap", loc_index, frame_index,
                                      step)
                          for step in range(len(frame.carriers_hz))]
            # every frame has one shape, so one frame's rows take them all
            rows = sweep.compose_sweep_capture(
                entries, frame, units, step_seeds,
                noise_power_dbfs=scenario.noise_power_dbfs, out=rows)
            losses += sweep.narrowband_losses(
                rows, frame, frame.tone_offsets_hz,
                [scenario.transmitters[k].tx_power_db for k in members])
            tones += frame.tone_offsets_hz

        for tx, tone, loss, seed in zip(scenario.transmitters, tones, losses, seeds):
            if None in loss:
                records.append(_record(scenario, loc_index, tx, seed,
                                       (FLAG_NO_SIGNAL,), tone_offset_hz=tone))
                continue
            records.append(_record(
                scenario, loc_index, tx, seed,
                wideband_path_loss_db=float(np.mean(loss)),
                narrowband_losses_db=list(loss), tone_offset_hz=tone))
    return records


def _fork_block(run_block, scenario: Scenario, prepared: tuple,
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
                outcome = (True, run_block(scenario, prepared, locations))
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


def run_campaign(scenario: Scenario, seed_override: int | None = None,
                 workers: int = 1) -> list:
    """Run the scenario and return its records, the JSON documents that
    export_records writes, in location-major order.

    The receiver path is cut into ``workers`` contiguous location blocks
    (at most one per location). This process prepares the scenario once
    and runs the first block; a forked child runs each other block, and
    its records are read back in block order. Seeds depend only on the
    master seed, location and transmitter, so the records are identical
    at any worker count. Off Linux the whole path runs here: forking
    after numpy has started its BLAS threads is checked only on Linux
    (macOS's Accelerate is not fork-safe).
    """
    if workers < 1:
        raise ValueError("workers: must be at least 1")
    if seed_override is not None:
        scenario = replace(scenario, master_seed=seed_override)
    prepared = prepare(scenario)
    run_block = _run_sliding if scenario.mode == MODE_SLIDING else _run_frequency
    count = len(scenario.receiver_path)
    if not sys.platform.startswith("linux"):
        workers = 1
    workers = min(workers, count)
    bounds = [count * k // workers for k in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(run_block, scenario, prepared, block))
        records = run_block(scenario, prepared, blocks[0])
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
    if not records:
        raise ValueError("no records to export")
    path = Path(path)
    try:
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def export_heatmap(records, transmitter_id: str, path) -> None:
    """Per-location path losses for one transmitter as plottable CSV."""
    rows = [r for r in records if r["transmitter_id"] == transmitter_id]
    if not rows:
        raise ValueError(f"no records for transmitter {transmitter_id!r}")
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
