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
import hashlib
import json
import math
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
    transmitters: tuple
    receiver_path: tuple
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


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ValueError(f"{context}{key}: required field is missing")
    return doc[key]


def scenario_from_json(doc: dict) -> Scenario:
    mode = _require(doc, "mode", "")
    txs = []
    for i, tx_doc in enumerate(_require(doc, "transmitters", "")):
        context = f"transmitters[{i}]."
        txs.append(Transmitter(
            id=str(_require(tx_doc, "id", context)),
            position=tuple(_require(tx_doc, "position_m", context)),
            tx_power_db=float(tx_doc.get("tx_power_db", 0.0)),
            antenna_height_note=tx_doc.get("antenna_height_note")))
    path = tuple(tuple(p) for p in _require(doc, "receiver_path_m", ""))

    env_doc = _require(doc, "environment", "")
    try:
        environment = EnvironmentModel(
            reference_loss_db=float(_require(env_doc, "reference_loss_db", "environment.")),
            path_loss_exponent=float(_require(env_doc, "path_loss_exponent", "environment.")),
            reference_distance_m=float(env_doc.get("reference_distance_m", 1.0)),
            delay_spread_scale_s=float(env_doc.get("delay_spread_scale_s", 0.0)),
            tap_count_range=tuple(env_doc.get("tap_count_range", (1, 1))),
            wall_loss_db=float(env_doc.get("wall_loss_db", 0.0)),
            wall_grid_spacing_m=env_doc.get("wall_grid_spacing_m"),
            rng_seed=int(env_doc.get("rng_seed", 0)))
    except ValueError as exc:
        raise ValueError(f"environment: {exc}") from exc

    kwargs = {}
    if "sliding" in doc:
        s = doc["sliding"]
        kwargs["sliding"] = SlidingSetup(
            chip_period_s=float(s.get("chip_period_s", 60e-9)),
            pn_degree=int(s.get("pn_degree", 10)),
            polynomial=s.get("polynomial"),
            averaging_periods=int(s.get("averaging_periods", 10)),
            detection_threshold_db=float(s.get("detection_threshold_db", 30.0)),
            rolloff=float(s.get("rolloff", 0.35)),
            span_symbols=int(s.get("span_symbols", 12)),
            samples_per_symbol=int(s.get("samples_per_symbol", 4)))
    if "frequency" in doc:
        f = doc["frequency"]
        kwargs["frequency"] = FrequencySetup(
            carriers_hz=tuple(f.get("carriers_hz",
                                    FrequencySetup().carriers_hz)),
            sample_rate_hz=float(f.get("sample_rate_hz", 1e6)),
            fft_length=int(f.get("fft_length", 4096)),
            guard_band_hz=float(f.get("guard_band_hz", 25e3)),
            step_duration_s=float(f.get("step_duration_s", 5e-3)),
            tone_offsets_hz=(tuple(f["tone_offsets_hz"])
                             if f.get("tone_offsets_hz") is not None else None))
    if "schedule" in doc:
        s = doc["schedule"]
        kwargs["schedule"] = ScheduleSetup(
            slot_length_s=s.get("slot_length_s"),
            guard_fraction=float(s.get("guard_fraction", 0.05)))
    if "clocks" in doc:
        c = doc["clocks"]
        kwargs["clocks"] = ClockSetup(
            tx_offsets_s=(tuple(c["tx_offsets_s"])
                          if c.get("tx_offsets_s") is not None else None),
            offset_std_s=float(c.get("offset_std_s", 0.0)),
            rx_offset_s=float(c.get("rx_offset_s", 0.0)))
    if "leakage" in doc:
        l = doc["leakage"]
        parked = l.get("parked_leakage_db")
        kwargs["leakage"] = multitx.LeakageModel(
            parked_leakage_db=math.inf if parked is None else float(parked),
            inband_null_leakage_db=float(l.get("inband_null_leakage_db", 30.0)))
        kwargs["park_mode"] = l.get("park_mode", multitx.PARK_OFF_BAND)
    if doc.get("noise_power_dbfs") is not None:
        kwargs["noise_power_dbfs"] = float(doc["noise_power_dbfs"])
    if doc.get("geo") is not None:
        kwargs["geo"] = tuple(doc["geo"])

    return Scenario(
        mode=mode, transmitters=tuple(txs), receiver_path=path,
        environment=environment, master_seed=int(doc.get("master_seed", 0)),
        **kwargs)


def scenario_to_json(scenario: Scenario) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": scenario.mode,
        "master_seed": scenario.master_seed,
        "transmitters": [
            {
                "id": tx.id,
                "position_m": list(tx.position),
                "tx_power_db": tx.tx_power_db,
                "antenna_height_note": tx.antenna_height_note,
            }
            for tx in scenario.transmitters
        ],
        "receiver_path_m": [list(p) for p in scenario.receiver_path],
        "environment": {
            "reference_loss_db": scenario.environment.reference_loss_db,
            "path_loss_exponent": scenario.environment.path_loss_exponent,
            "reference_distance_m": scenario.environment.reference_distance_m,
            "delay_spread_scale_s": scenario.environment.delay_spread_scale_s,
            "tap_count_range": list(scenario.environment.tap_count_range),
            "wall_loss_db": scenario.environment.wall_loss_db,
            "wall_grid_spacing_m": scenario.environment.wall_grid_spacing_m,
            "rng_seed": scenario.environment.rng_seed,
        },
        "sliding": {
            "chip_period_s": scenario.sliding.chip_period_s,
            "pn_degree": scenario.sliding.pn_degree,
            "polynomial": scenario.sliding.polynomial,
            "averaging_periods": scenario.sliding.averaging_periods,
            "detection_threshold_db": scenario.sliding.detection_threshold_db,
            "rolloff": scenario.sliding.rolloff,
            "span_symbols": scenario.sliding.span_symbols,
            "samples_per_symbol": scenario.sliding.samples_per_symbol,
        },
        "frequency": {
            "carriers_hz": list(scenario.frequency.carriers_hz),
            "sample_rate_hz": scenario.frequency.sample_rate_hz,
            "fft_length": scenario.frequency.fft_length,
            "guard_band_hz": scenario.frequency.guard_band_hz,
            "step_duration_s": scenario.frequency.step_duration_s,
            "tone_offsets_hz": (list(scenario.frequency.tone_offsets_hz)
                                if scenario.frequency.tone_offsets_hz is not None
                                else None),
        },
        "schedule": {
            "slot_length_s": scenario.schedule.slot_length_s,
            "guard_fraction": scenario.schedule.guard_fraction,
        },
        "clocks": {
            "tx_offsets_s": (list(scenario.clocks.tx_offsets_s)
                             if scenario.clocks.tx_offsets_s is not None else None),
            "offset_std_s": scenario.clocks.offset_std_s,
            "rx_offset_s": scenario.clocks.rx_offset_s,
        },
        "leakage": {
            "parked_leakage_db": (None
                                  if scenario.leakage.parked_leakage_db == math.inf
                                  else scenario.leakage.parked_leakage_db),
            "inband_null_leakage_db": scenario.leakage.inband_null_leakage_db,
            "park_mode": scenario.park_mode,
        },
        "noise_power_dbfs": scenario.noise_power_dbfs,
        "geo": list(scenario.geo) if scenario.geo is not None else None,
    }
    return doc


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
