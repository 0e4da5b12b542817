"""Child process of the campaign benchmark; run.py starts it.

Two modes, each in a fresh interpreter:

``setup``      time from interpreter start to the campaign's first
               location: importing chansounder, loading the scenario
               and everything ``run_campaign`` does before its first
               channel draw. Prints that wall time and its calibrated
               value (see speed.py) as its last line.
``campaigns``  warm-up campaigns for two seconds, then whole campaigns
               through ``cli.main`` until ``--seconds`` is used up, each
               under a speed probe. With ``--trace 1`` every second
               campaign runs under the tracer instead and the others run
               bare. Writes timings, output digests, peak memory and
               layer statistics to ``--result``.
"""

from time import perf_counter

_START = perf_counter()  # before chansounder or numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 2.0
REFERENCE_RUNS = 20
sys.path.insert(0, str(ROOT / "src"))


class FirstLocation(BaseException):
    """Stops a set-up probe at the first channel draw. A BaseException,
    so no handler in the program can swallow it."""


def _campaign_argv(scenario, out_dir):
    return ["campaign", "--scenario", str(scenario), "--out-dir", str(out_dir)]


def probe_setup(args) -> tuple:
    from chansounder import cli

    reached = []

    def stop_at_first_location(original):
        def first_location(*call_args, **call_kwargs):
            reached.append(perf_counter())
            raise FirstLocation
        return first_location

    if not tracer.replace_everywhere("channel.synthesize_channel",
                                     stop_at_first_location):
        raise RuntimeError("chansounder.channel.synthesize_channel is gone")
    try:
        cli.main(_campaign_argv(args.scenario, args.out_dir))
    except FirstLocation:
        wall_s = reached[0] - _START
        probes = [speed.reference_kernel() for _ in range(REFERENCE_RUNS)]
        return wall_s, speed.calibrate(wall_s, probes)
    raise RuntimeError("the campaign finished without drawing a channel")


def _digests(out_dir: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir()) if path.is_file()}


def _clear(out_dir: Path):
    for path in out_dir.iterdir():
        if path.is_file():
            path.unlink()


def run_campaigns(args) -> dict:
    from chansounder import cli

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # warm-up: a few locations of the same scenario, repeated, fill lazy
    # caches; a single short pass left the first timed campaign slower
    warm_until = perf_counter() + WARMUP_S
    while True:
        if cli.main(_campaign_argv(args.warmup, out_dir)) != 0:
            raise RuntimeError("warm-up campaign failed")
        _clear(out_dir)
        speed.reference_kernel()
        if perf_counter() >= warm_until:
            break

    campaigns = []
    active = tracer.Tracer()
    minimum = 2 if args.trace else 3
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(campaigns) % 2 == 1
        if args.trace:
            context = active if traced else contextlib.nullcontext()
        else:
            context = speed.SpeedProbe()
        status = None
        with context:
            begin = perf_counter()
            try:
                status = cli.main(_campaign_argv(args.scenario, out_dir))
            except Exception:
                traceback.print_exc()
            end = perf_counter()
        ok = status == 0
        campaigns.append({
            "ok": ok, "traced": traced, "seconds": end - begin,
            "calibrated_s": (None if args.trace
                             else context.calibrated(end - begin)),
            "digests": _digests(out_dir) if ok else {}})
        elapsed = perf_counter() - started
        typical = statistics.median(c["seconds"] for c in campaigns)
        if len(campaigns) >= minimum and elapsed + typical > args.seconds:
            break
        _clear(out_dir)

    if args.trace:
        with open(args.spans, "w") as handle:
            for name, start, end, parent, error, samples in active.spans:
                handle.write(json.dumps({
                    "name": name, "start_s": start - started,
                    "end_s": end - started, "parent": parent, "error": error,
                    "samples": samples}) + "\n")
    return {
        "campaigns": campaigns,
        "layers": tracer.layer_stats(active.spans),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "campaigns"))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--warmup")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        wall_s, calibrated_s = probe_setup(args)
        print(f"{wall_s:.9f} {calibrated_s:.9f}")
        return 0
    result = run_campaigns(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
