"""Command-line entry point for batch use.

Subcommands: gen-pn, sound-sliding, sound-freq, campaign, validate.
Every output lands inside the output directory that --out-dir names,
else the working directory; --name is a file name in it. With --json
the final stdout line is a machine-readable status object.
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
    path = Path(args.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sounder_config(args) -> sliding.SounderConfig:
    """The sliding block file at --config, or the block's defaults."""
    return (sliding.SounderConfig() if args.config is None
            else schema.load(sliding.SounderConfig, args.config))


def _cmd_gen_pn(args) -> dict:
    config = _sounder_config(args)
    chips = pn.generate_glfsr(config.pn_degree, config.polynomial)
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
    config = _sounder_config(args)
    chips, taps = sliding.reference(config)
    capture = _read_capture(args.capture,
                            config.samples_per_symbol / config.chip_period_s,
                            "samples_per_symbol / chip_period_s")
    try:
        [profile] = sliding.measure_sliding(
            dataclasses.replace(capture, samples=capture.samples[np.newaxis]),
            chips, taps, config, [args.tx_power_db])
    except CaptureWindowError as exc:
        # a capture shorter than the periods the receiver reads misses
        # them wherever it sits; a longer one misses them by its origin
        periods = sliding.SETTLE_PERIODS + config.averaging_periods
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
            f"captures: need one capture per carrier step ({steps}), "
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
    records = campaign.run_campaign(scenario, workers=_campaign_workers())
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


# every float flag
_FLOAT_FLAGS = ("--tx-power-db", "--tone-offset")


def _join_float_values(argv) -> list:
    """argv with each float flag, or a prefix of one as argparse accepts,
    and its value joined into one flag=value token, so that argparse
    reads a value such as -1e3 or -inf as the flag's number, not as an
    unknown option."""
    tokens = iter(argv)
    return ["=".join([token, *itertools.islice(tokens, 1)])
            if len(token) > 2 and any(f.startswith(token) for f in _FLOAT_FLAGS)
            else token for token in tokens]


def _check_flags(args) -> None:
    """Raise naming --tx-power-db when it is outside the range of a
    scenario's tx_power_db, and --name when it is not a file name, which
    would write outside the output directory or nowhere. The other float
    flag, --tone-offset, must be one of the plan's tones."""
    if hasattr(args, "tx_power_db"):
        [power] = [f for f in dataclasses.fields(campaign.Transmitter)
                   if f.name == "tx_power_db"]
        schema.check_range(power, args.tx_power_db, "--tx-power-db")
    name = getattr(args, "name", None)
    if name is not None and (name in ("", "..") or Path(name).name != name):
        raise ValueError(f"--name: {name!r} is not a file name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="Simulated sliding-correlator and stepped-frequency channel sounding")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a machine-readable status object")
    common.add_argument("--out-dir", default=None,
                        help="output directory (default .)")
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "a scenario's sliding block as JSON (default: its defaults)"

    g = sub.add_parser("gen-pn", parents=[common],
                       help="emit one period of the PN chip sequence")
    g.add_argument("--config", help=config_help)
    g.add_argument("--name", default="chips.txt")
    g.set_defaults(handler=_cmd_gen_pn)

    s = sub.add_parser("sound-sliding", parents=[common], help="delay profile from one I/Q capture")
    s.add_argument("--capture", required=True)
    s.add_argument("--config", help=config_help)
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
        _check_flags(args)
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
