"""Command-line entry point for batch use.

Subcommands: gen-pn, sound-sliding, sound-freq, campaign, validate.
Every output lands inside the chosen output directory (flag --out-dir,
else $CHANSOUNDER_OUT_DIR, else the working directory). With --json the
final stdout line is a machine-readable status object.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from chansounder import campaign, multitx, pn, pulse, schema, sliding, sweep
from chansounder.exceptions import CaptureWindowError, NoSignalError


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get("CHANSOUNDER_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen_pn(args) -> dict:
    polynomial = int(args.polynomial, 0) if args.polynomial else None
    chips = pn.generate_glfsr(args.degree, polynomial, args.seed_state)
    target = _out_dir(args) / args.name
    pn.save_chips(chips, target)
    return {"outputs": [str(target)], "period_length": chips.period_length}


def _read_capture(path, rate: float, source: str) -> pulse.BasebandSignal:
    """The capture at path, whose sidecar must give the sample rate that
    source sets (to a relative 1e-9)."""
    capture = pulse.read_iq(path)
    if not math.isclose(capture.sample_rate, rate, rel_tol=1e-9):
        raise ValueError(f"{path}.json: sample_rate_hz: {capture.sample_rate!r} "
                         f"Hz is not the {rate!r} Hz of {source}")
    return capture


def _read_step(path, frame: sweep.FrequencySetup) -> pulse.BasebandSignal:
    """One sweep step's capture, checked against the plan: its rate, and
    at least one FFT window of samples. Its origin_time_s is not read: a
    time shift does not change the power in a bin-centered tone's bin."""
    capture = _read_capture(path, frame.sample_rate_hz, "the plan")
    if len(capture) < frame.fft_length:
        raise ValueError(f"{path}.json: sample_count: {len(capture)} is below "
                         f"the plan's fft_length {frame.fft_length}")
    return capture


def _cmd_sound_sliding(args) -> dict:
    settings = {f.name: getattr(args, f.name)
                for f in dataclasses.fields(sliding.SounderConfig)}
    settings["polynomial"] = int(args.polynomial, 0) if args.polynomial else None
    config = sliding.SounderConfig(**settings)
    chips, taps = sliding.reference(config)
    if args.settle_periods < 0:
        raise ValueError(f"--settle-periods: must be >= 0, "
                         f"got {args.settle_periods}")
    capture = _read_capture(args.capture,
                            config.samples_per_symbol / config.chip_period_s,
                            "samples_per_symbol / chip_period_s")
    try:
        [profile] = sliding.measure_sliding(
            capture.rows(0, 0, 1, len(capture)), chips, taps, config,
            [args.tx_power_db], settle_periods=args.settle_periods)
    except CaptureWindowError as exc:
        # a capture shorter than the periods the receiver reads misses
        # them wherever it sits; a longer one misses them by its origin
        periods = args.settle_periods + config.averaging_periods
        needed = periods * chips.period_length * config.samples_per_symbol
        field = "sample_count" if len(capture) < needed else "origin_time_s"
        raise ValueError(f"{args.capture}.json: {field}: {exc}") from None
    if isinstance(profile, NoSignalError):
        raise profile
    target = _out_dir(args) / args.name
    target.write_text(json.dumps(profile, indent=2) + "\n")
    return {"outputs": [str(target)], "path_loss_db": profile["path_loss_db"],
            "rms_delay_spread_s": profile["rms_delay_spread_s"]}


def _cmd_sound_freq(args) -> dict:
    setup = schema.load(sweep.FrequencySetup, args.plan)
    tones = setup.tone_offsets_hz
    frame = multitx.build_frequency_plan(
        setup, len(tones) if tones is not None else 1)[0]
    steps = len(frame.carriers_hz)
    if len(args.captures) != steps:
        raise ValueError(
            f"need one capture per carrier step ({steps}), "
            f"got {len(args.captures)}"
        )
    tone = args.tone_offset if args.tone_offset is not None else frame.tone_offsets_hz[0]
    if not frame.has_tone(tone):
        raise ValueError(f"--tone-offset: tone offset {tone} Hz is not part "
                         f"of the plan")
    # only each step's first FFT window is kept, not its whole capture
    rows = np.empty((steps, frame.fft_length), dtype=np.complex128)
    for row, path in zip(rows, args.captures):
        row[:] = _read_step(path, frame).samples[:frame.fft_length]
    [losses] = sweep.narrowband_losses(rows, frame, [tone], [args.tx_power_db])
    if None in losses:
        raise NoSignalError(f"no power in the tone bin of step {losses.index(None)}")
    doc = {"transmitter_id": args.transmitter_id, "tone_offset_hz": tone,
           "per_carrier_loss_db": losses, "mean_path_loss_db": float(np.mean(losses))}
    target = _out_dir(args) / args.name
    target.write_text(json.dumps(doc, indent=2) + "\n")
    return {"outputs": [str(target)], "mean_path_loss_db": doc["mean_path_loss_db"]}


def _cmd_campaign(args) -> dict:
    scenario = campaign.load_scenario(args.scenario)
    records = campaign.run_campaign(scenario, seed_override=args.seed,
                                    workers=_campaign_workers())
    out = _out_dir(args)
    records_path = out / "records.jsonl"
    campaign.export_records(records, records_path)
    outputs = [str(records_path)]
    for tx in scenario.transmitters:
        heatmap_path = out / f"heatmap_{tx.id}.csv"
        campaign.export_heatmap(records, tx.id, heatmap_path)
        outputs.append(str(heatmap_path))
    return {"outputs": outputs, "record_count": len(records)}


def _cmd_validate(args) -> dict:
    scenario = campaign.load_scenario(args.scenario)
    campaign.prepare(scenario)
    return {"outputs": [], "valid": True,
            "mode": scenario.mode,
            "transmitters": len(scenario.transmitters),
            "locations": len(scenario.receiver_path)}


# The most campaign processes that were measured (on 2 CPUs). Each one
# adds its own memory (about 40 MB on sliding-c9) and its own BLAS
# pool, and the CPU affinity ignores cgroup CPU quotas, so more than
# this is not used until it has been measured.
_MAX_CAMPAIGN_WORKERS = 2


def _campaign_workers() -> int:
    """Processes for a campaign: the CPUs this process may run on, at
    most _MAX_CAMPAIGN_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_CAMPAIGN_WORKERS)


# sound-sliding's flag for each SounderConfig field, and the field's type
_CONFIG_FLAGS = (
    ("--degree", "pn_degree", int), ("--polynomial", "polynomial", str),
    ("--chip-period", "chip_period_s", float), ("--rolloff", "rolloff", float),
    ("--span", "span_symbols", int), ("--sps", "samples_per_symbol", int),
    ("--periods", "averaging_periods", int),
    ("--threshold-db", "detection_threshold_db", float))
# every float flag, with the attribute it sets
_FLOAT_FLAGS = {flag: name for flag, name, kind in _CONFIG_FLAGS
                if kind is float} | {"--tx-power-db": "tx_power_db",
                                     "--tone-offset": "tone_offset"}


def _join_float_values(argv) -> list:
    """argv with each float flag, or a prefix of one as argparse accepts,
    and its value joined into one flag=value token, so that argparse
    reads a value such as -1e3 or -inf as the flag's number, not as an
    unknown option."""
    tokens = iter(argv)
    return ["=".join([token, *itertools.islice(tokens, 1)])
            if len(token) > 2 and any(f.startswith(token) for f in _FLOAT_FLAGS)
            else token for token in tokens]


def _check_float_flags(args) -> None:
    """Raise naming the first float flag given a NaN or an infinity, or a
    --tx-power-db out of a scenario's tx_power_db range."""
    for flag, name in _FLOAT_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag}: must be finite, got {value}")
    if not campaign.has_amplitude(getattr(args, "tx_power_db", 0.0)):
        raise ValueError(f"--tx-power-db: {args.tx_power_db} dB has no "
                         f"finite, nonzero linear amplitude")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="Simulated sliding-correlator and stepped-frequency channel sounding")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a machine-readable status object")
    common.add_argument("--out-dir", default=None,
                        help="output directory (default $CHANSOUNDER_OUT_DIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-pn", parents=[common],
                       help="emit one period of the PN chip sequence")
    g.add_argument("--degree", type=int, default=10)
    g.add_argument("--polynomial", default=None,
                   help="feedback polynomial as an integer (e.g. 0x409)")
    g.add_argument("--seed-state", type=int, default=1)
    g.add_argument("--name", default="chips.txt")
    g.set_defaults(handler=_cmd_gen_pn)

    s = sub.add_parser("sound-sliding", parents=[common], help="delay profile from one I/Q capture")
    s.add_argument("--capture", required=True)
    # one flag per SounderConfig field, defaulting to the field's default
    config = sliding.SounderConfig()
    for flag, name, kind in _CONFIG_FLAGS:
        s.add_argument(flag, dest=name, type=kind, default=getattr(config, name))
    s.add_argument("--settle-periods", type=int, default=1)
    s.add_argument("--tx-power-db", type=float, default=0.0)
    s.add_argument("--name", default="profile.json")
    s.set_defaults(handler=_cmd_sound_sliding)

    f = sub.add_parser("sound-freq", parents=[common], help="narrowband losses from sweep captures")
    f.add_argument("--plan", required=True, help="sweep plan JSON")
    f.add_argument("--tone-offset", type=float, default=None)
    f.add_argument("--tx-power-db", type=float, default=0.0)
    f.add_argument("--transmitter-id", default="tx")
    f.add_argument("--name", default="losses.json")
    f.add_argument("captures", nargs="+", help="one I/Q capture per carrier step")
    f.set_defaults(handler=_cmd_sound_freq)

    c = sub.add_parser("campaign", parents=[common], help="run a scenario end to end")
    c.add_argument("--scenario", required=True)
    c.add_argument("--seed", type=int, default=None, help="master seed override")
    c.set_defaults(handler=_cmd_campaign)

    v = sub.add_parser("validate", parents=[common], help="lint a scenario file")
    v.add_argument("--scenario", required=True)
    v.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_float_flags(args)
        payload = args.handler(args)
    except (ValueError, OSError, NoSignalError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        if args.json:
            print(json.dumps({"status": "error", "message": message}))
        print(message, file=sys.stderr)
        return 2
    payload["status"] = "ok"
    if args.json:
        print(json.dumps(payload))
    else:
        for item in payload.get("outputs", []):
            print(item)
    return 0


if __name__ == "__main__":
    sys.exit(main())
