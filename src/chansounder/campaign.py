"""Scenario-driven measurement campaigns.

A scenario places transmitters, scripts a receiver path, and names the
sounding mode. The runner synthesizes a channel per (location,
transmitter) pair, composes the multi-transmitter received signal, runs
the mode's sounder, and emits one record per pair in deterministic
location-major order. All randomness is derived from the master seed, a
location index, and the transmitter id, so single-transmitter
sub-scenarios reproduce their slice of the full run exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from chansounder import multitx, sliding, sweep
from chansounder.channel import EnvironmentModel, synthesize_channel
from chansounder.exceptions import NoSignalError
from chansounder.pn import generate_glfsr
from chansounder.pulse import BasebandSignal, design_rrc, modulate

SCHEMA_VERSION = 1
MODE_SLIDING = "sliding"
MODE_FREQUENCY = "frequency"

FLAG_NO_SIGNAL = "no_signal"
FLAG_MISALIGNED = "misaligned"


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-(purpose, location, transmitter) seed mixing."""
    text = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << 63)


@dataclass(frozen=True)
class Transmitter:
    id: str
    position: tuple
    tx_power_db: float = 0.0
    antenna_height_note: str | None = None


@dataclass(frozen=True)
class SlidingSetup:
    chip_period_s: float = 60e-9
    pn_degree: int = 10
    polynomial: int | None = None
    averaging_periods: int = 10
    detection_threshold_db: float = 30.0
    rolloff: float = 0.35
    span_symbols: int = 12
    samples_per_symbol: int = 4


@dataclass(frozen=True)
class FrequencySetup:
    carriers_hz: tuple = tuple(700e6 + 2e6 * k for k in range(10))
    sample_rate_hz: float = 1e6
    fft_length: int = 4096
    guard_band_hz: float = 25e3
    step_duration_s: float = 5e-3
    tone_offsets_hz: tuple | None = None


@dataclass(frozen=True)
class ScheduleSetup:
    slot_length_s: float | None = None  # None: smallest slot fitting the burst
    guard_fraction: float = 0.05


@dataclass(frozen=True)
class ClockSetup:
    tx_offsets_s: tuple | None = None  # explicit per-transmitter offsets
    offset_std_s: float = 0.0          # else drawn per node from this spread
    rx_offset_s: float = 0.0


@dataclass(frozen=True)
class Scenario:
    mode: str
    transmitters: tuple[Transmitter, ...]
    receiver_path: tuple[tuple, ...]
    environment: EnvironmentModel
    master_seed: int = 0
    sliding: SlidingSetup = field(default_factory=SlidingSetup)
    frequency: FrequencySetup = field(default_factory=FrequencySetup)
    schedule: ScheduleSetup = field(default_factory=ScheduleSetup)
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
        if len(self.transmitters) < 1:
            raise ValueError("transmitters: at least one transmitter required")
        if len(self.receiver_path) < 1:
            raise ValueError("receiver_path: at least one position required")
        ids = [tx.id for tx in self.transmitters]
        if len(set(ids)) != len(ids):
            raise ValueError("transmitters: ids must be unique")
        if self.geo is not None and len(self.geo) != len(self.receiver_path):
            raise ValueError("geo: must align one-to-one with receiver_path")


@dataclass(frozen=True)
class MeasurementRecord:
    location_index: int
    position: tuple
    transmitter_id: str
    mode: str
    wideband_path_loss_db: float | None
    rms_delay_spread_s: float | None = None
    delay_profile: sliding.DelayProfile | None = None
    narrowband_losses_db: tuple | None = None
    tone_offset_hz: float | None = None
    geo: object = None
    seed: int = 0
    flags: tuple = ()


def _sliding_geometry(setup: SlidingSetup, schedule: ScheduleSetup,
                      burst_samples: int, sample_rate: float):
    """Slot and guard sizes in samples, both multiples of one symbol."""
    sps = setup.samples_per_symbol
    if schedule.slot_length_s is None:
        fraction = schedule.guard_fraction
        slot = math.ceil(burst_samples / (1.0 - 2.0 * fraction) / sps) * sps
    else:
        slot = int(round(schedule.slot_length_s * sample_rate))
        slot -= slot % sps
        if slot < burst_samples:
            raise ValueError(
                f"schedule.slot_length_s: slot of {slot} samples cannot hold "
                f"the {burst_samples}-sample burst"
            )
    guard = ((slot - burst_samples) // 2) // sps * sps
    limit = int(schedule.guard_fraction * slot) // sps * sps
    if schedule.slot_length_s is not None:
        guard = min(guard, limit)
    return slot, guard


def _tx_clock_offsets(scenario: Scenario) -> list:
    clocks = scenario.clocks
    if clocks.tx_offsets_s is not None:
        if len(clocks.tx_offsets_s) != len(scenario.transmitters):
            raise ValueError("clocks.tx_offsets_s: one offset per transmitter")
        offsets = list(clocks.tx_offsets_s)
    elif clocks.offset_std_s > 0.0:
        offsets = [
            multitx.draw_clock(clocks.offset_std_s,
                               derive_seed(scenario.master_seed, "clock", tx.id)).offset
            for tx in scenario.transmitters
        ]
    else:
        offsets = [0.0] * len(scenario.transmitters)
    # the receiver's own error shifts every transmitter the opposite way
    return [off - clocks.rx_offset_s for off in offsets]


def _run_sliding(scenario: Scenario) -> list:
    setup = scenario.sliding
    chips = generate_glfsr(setup.pn_degree, setup.polynomial)
    taps = design_rrc(setup.rolloff, setup.span_symbols, setup.samples_per_symbol)
    config = sliding.SounderConfig(
        chip_period=setup.chip_period_s,
        pn_degree=setup.pn_degree,
        averaging_periods=setup.averaging_periods,
        detection_threshold_db=setup.detection_threshold_db,
    )
    burst = modulate(chips, setup.averaging_periods + 2, taps, setup.chip_period_s)
    sample_rate = burst.sample_rate
    slot_samples, guard_samples = _sliding_geometry(
        setup, scenario.schedule, len(burst), sample_rate)
    schedule = multitx.build_schedule(len(scenario.transmitters),
                                      slot_samples / sample_rate)
    offsets = _tx_clock_offsets(scenario)
    waveforms = [
        BasebandSignal(samples=burst.samples * 10.0 ** (tx.tx_power_db / 20.0),
                       sample_rate=sample_rate, origin_time=burst.origin_time)
        for tx in scenario.transmitters
    ]

    records = []
    for loc_index, position in enumerate(scenario.receiver_path):
        geo = scenario.geo[loc_index] if scenario.geo is not None else None
        scene = []
        seeds = []
        for tx, waveform, offset in zip(scenario.transmitters, waveforms, offsets):
            seed = derive_seed(scenario.master_seed, "chan", loc_index, tx.id)
            seeds.append(seed)
            chan, _ = synthesize_channel(scenario.environment, tx.position,
                                         position, seed,
                                         delay_grid_s=setup.chip_period_s)
            scene.append(multitx.SceneTransmitter(
                waveform=waveform, channel=chan, park_mode=scenario.park_mode,
                clock=multitx.ClockModel(offset=offset)))
        capture = multitx.compose_received(
            scene, schedule, leakage=scenario.leakage,
            burst_offset_samples=guard_samples,
            noise_power_dbfs=scenario.noise_power_dbfs,
            seed=derive_seed(scenario.master_seed, "noise", loc_index))
        segmented = multitx.segment_capture(capture, schedule,
                                            trim_samples=guard_samples)
        location_flags = (FLAG_MISALIGNED,) if segmented.misaligned else ()
        for tx, segment, seed in zip(scenario.transmitters,
                                     segmented.segments, seeds):
            tx_config = replace(config, tx_power_db=tx.tx_power_db)
            try:
                profile = sliding.measure_sliding(segment, chips, taps, tx_config)
                records.append(MeasurementRecord(
                    location_index=loc_index, position=tuple(position),
                    transmitter_id=tx.id, mode=MODE_SLIDING,
                    wideband_path_loss_db=profile.wideband_path_loss_db,
                    rms_delay_spread_s=profile.rms_delay_spread,
                    delay_profile=profile, geo=geo, seed=seed,
                    flags=location_flags))
            except NoSignalError:
                records.append(MeasurementRecord(
                    location_index=loc_index, position=tuple(position),
                    transmitter_id=tx.id, mode=MODE_SLIDING,
                    wideband_path_loss_db=None, geo=geo, seed=seed,
                    flags=location_flags + (FLAG_NO_SIGNAL,)))
    return records


def _frequency_plans(scenario: Scenario) -> tuple:
    """Sweep plans plus the (frame, tone) assignment per transmitter."""
    setup = scenario.frequency
    count = len(scenario.transmitters)
    if setup.tone_offsets_hz is not None:
        if len(setup.tone_offsets_hz) != count:
            raise ValueError("frequency.tone_offsets_hz: one tone per transmitter")
        plan = sweep.SweepPlan(
            carrier_list=np.asarray(setup.carriers_hz, dtype=np.float64),
            tone_offsets=np.asarray(setup.tone_offsets_hz, dtype=np.float64),
            step_duration=setup.step_duration_s,
            sample_rate=setup.sample_rate_hz,
            fft_length=setup.fft_length,
            guard_band=setup.guard_band_hz)
        plans = [plan]
        assignment = [(0, k) for k in range(count)]
    else:
        plans = multitx.build_frequency_plan(
            count, setup.guard_band_hz, setup.sample_rate_hz,
            setup.fft_length, setup.carriers_hz, setup.step_duration_s)
        capacity = len(plans[0].tone_offsets)
        assignment = [(k // capacity, k % capacity) for k in range(count)]
    return plans, assignment


def _run_frequency(scenario: Scenario) -> list:
    plans, assignment = _frequency_plans(scenario)
    records = []
    for loc_index, position in enumerate(scenario.receiver_path):
        geo = scenario.geo[loc_index] if scenario.geo is not None else None
        channels = []
        seeds = []
        for tx in scenario.transmitters:
            seed = derive_seed(scenario.master_seed, "chan", loc_index, tx.id)
            seeds.append(seed)
            chan, _ = synthesize_channel(scenario.environment, tx.position,
                                         position, seed, delay_grid_s=1e-9)
            channels.append(chan)

        losses = {k: [] for k in range(len(scenario.transmitters))}
        for frame_index, plan in enumerate(plans):
            members = [k for k, (frame, _) in enumerate(assignment)
                       if frame == frame_index]
            tones = [float(plan.tone_offsets[assignment[k][1]]) for k in members]
            for step in range(plan.step_count):
                entries = [(tone, channels[k]) for tone, k in zip(tones, members)]
                capture = sweep.compose_sweep_capture(
                    entries, plan, step,
                    noise_power_dbfs=scenario.noise_power_dbfs,
                    seed=derive_seed(scenario.master_seed, "cap",
                                     loc_index, frame_index, step))
                powers = sweep.bin_powers(capture, plan, tones)
                for k, power in zip(members, powers):
                    tx_power = scenario.transmitters[k].tx_power_db
                    loss = (tx_power - 10.0 * math.log10(power)
                            if power > 0.0 else None)
                    losses[k].append(loss)

        for k, tx in enumerate(scenario.transmitters):
            frame_index, tone_index = assignment[k]
            tone = float(plans[frame_index].tone_offsets[tone_index])
            if any(loss is None for loss in losses[k]):
                records.append(MeasurementRecord(
                    location_index=loc_index, position=tuple(position),
                    transmitter_id=tx.id, mode=MODE_FREQUENCY,
                    wideband_path_loss_db=None, tone_offset_hz=tone,
                    geo=geo, seed=seeds[k], flags=(FLAG_NO_SIGNAL,)))
                continue
            loss_set = sweep.NarrowbandLossSet(
                per_carrier_loss_db=np.asarray(losses[k], dtype=np.float64),
                transmitter_id=tx.id, tone_offset=tone)
            records.append(MeasurementRecord(
                location_index=loc_index, position=tuple(position),
                transmitter_id=tx.id, mode=MODE_FREQUENCY,
                wideband_path_loss_db=sweep.mean_wideband_path_loss(loss_set),
                narrowband_losses_db=tuple(float(v) for v in losses[k]),
                tone_offset_hz=tone, geo=geo, seed=seeds[k]))
    return records


def run_campaign(scenario: Scenario, seed_override: int | None = None) -> list:
    """Run the scenario and return records in location-major order."""
    if seed_override is not None:
        scenario = replace(scenario, master_seed=seed_override)
    if scenario.mode == MODE_SLIDING:
        return _run_sliding(scenario)
    return _run_frequency(scenario)


def record_to_json(record: MeasurementRecord) -> dict:
    position = tuple(record.position) + (0.0,) * (3 - len(record.position))
    return {
        "schema_version": SCHEMA_VERSION,
        "location_index": record.location_index,
        "x_m": position[0],
        "y_m": position[1],
        "z_m": position[2],
        "geo": record.geo,
        "transmitter_id": record.transmitter_id,
        "mode": record.mode,
        "wideband_path_loss_db": record.wideband_path_loss_db,
        "rms_delay_spread_s": record.rms_delay_spread_s,
        "delay_profile": (sliding.profile_to_json(record.delay_profile)
                          if record.delay_profile is not None else None),
        "narrowband_losses_db": (list(record.narrowband_losses_db)
                                 if record.narrowband_losses_db is not None else None),
        "tone_offset_hz": record.tone_offset_hz,
        "seed": record.seed,
        "flags": list(record.flags),
    }


def record_from_json(doc: dict) -> MeasurementRecord:
    profile = doc.get("delay_profile")
    narrow = doc.get("narrowband_losses_db")
    return MeasurementRecord(
        location_index=int(doc["location_index"]),
        position=(doc["x_m"], doc["y_m"], doc["z_m"]),
        transmitter_id=doc["transmitter_id"],
        mode=doc["mode"],
        wideband_path_loss_db=doc["wideband_path_loss_db"],
        rms_delay_spread_s=doc.get("rms_delay_spread_s"),
        delay_profile=sliding.profile_from_json(profile) if profile else None,
        narrowband_losses_db=tuple(narrow) if narrow is not None else None,
        tone_offset_hz=doc.get("tone_offset_hz"),
        geo=doc.get("geo"),
        seed=int(doc.get("seed", 0)),
        flags=tuple(doc.get("flags", ())),
    )


def export_records(records, path) -> None:
    """Write one JSON document per line."""
    if not records:
        raise ValueError("no records to export")
    path = Path(path)
    try:
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record_to_json(record)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def load_records(path):
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read records from {path}: {exc}") from exc
    return [record_from_json(json.loads(line)) for line in lines if line]


def export_heatmap(records, transmitter_id: str, path) -> None:
    """Per-location path losses for one transmitter as plottable CSV."""
    rows = [r for r in records if r.transmitter_id == transmitter_id]
    if not rows:
        raise ValueError(f"no records for transmitter {transmitter_id!r}")
    rows.sort(key=lambda r: r.location_index)
    path = Path(path)
    try:
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x_m", "y_m", "path_loss_db"])
            for record in rows:
                loss = record.wideband_path_loss_db
                writer.writerow([
                    record.position[0], record.position[1],
                    "nan" if loss is None else loss,
                ])
    except OSError as exc:
        raise OSError(f"cannot write heat map to {path}: {exc}") from exc


# Where the scenario file differs from the dataclass fields: these keys
# are renamed, these fields store infinity as null, park_mode sits inside
# the leakage block, and tuples are stored as lists.
_JSON_NAMES = {"position": "position_m", "receiver_path": "receiver_path_m"}
_INF_AS_NULL = {"parked_leakage_db"}


def _to_json(value):
    if dataclasses.is_dataclass(value):
        doc = {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if f.name in _INF_AS_NULL and item == math.inf:
                item = None
            doc[_JSON_NAMES.get(f.name, f.name)] = _to_json(item)
        return doc
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _from_json(kind, value, path: str):
    """Convert a JSON value to the annotated type, naming path on errors."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    if dataclasses.is_dataclass(kind):
        return _dataclass_from_json(kind, value, path)
    if kind is tuple or typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        if kind is tuple:
            return tuple(value)
        item_kind = typing.get_args(kind)[0]
        return tuple(_from_json(item_kind, item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    # exact JSON types: no rounding, no bools as numbers, no numbers or
    # nulls as strings
    if not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"{path}: number too large for a float") from None
        if kind in (int, str) and isinstance(value, kind):
            return value
    raise ValueError(f"{path}: expected {kind.__name__}, got {value!r}")


def _dataclass_from_json(kind, doc, path: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object, got {doc!r}")
    prefix = f"{path}." if path else ""
    fields = {_JSON_NAMES.get(f.name, f.name): f for f in dataclasses.fields(kind)}
    for key in doc:
        if key not in fields:
            raise ValueError(f"{prefix}{key}: unknown field")
    hints = typing.get_type_hints(kind)
    kwargs = {}
    for key, f in fields.items():
        if key not in doc:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise ValueError(f"{prefix}{key}: required field is missing")
        elif f.name in _INF_AS_NULL and doc[key] is None:
            kwargs[f.name] = math.inf
        else:
            kwargs[f.name] = _from_json(hints[f.name], doc[key], prefix + key)
    try:
        return kind(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from exc


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
    return _dataclass_from_json(Scenario, doc, "")


def scenario_to_json(scenario: Scenario) -> dict:
    doc = _to_json(scenario)
    doc["leakage"]["park_mode"] = doc.pop("park_mode")
    return {"schema_version": SCHEMA_VERSION, "mode": doc.pop("mode"),
            "master_seed": doc.pop("master_seed"), **doc}


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read scenario from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_json(doc)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(scenario), indent=2) + "\n")
