"""Campaign benchmark for chansounder.

    python3 campaignbench/run.py --workload sliding-c9 --seed 42 --seconds 30 --trace 0

Generates the workload's scenario from --seed, runs whole campaigns
through ``cli.main`` in a child interpreter for --seconds, checks the
output bytes and the channel-oracle accuracy, and prints one JSON line
last: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACES = BENCH / "traces"

SETUP_RUNS = 5
WARMUP_LOCATIONS = 4
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 60


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _import_package():
    if not (SRC / "chansounder" / "__init__.py").is_file():
        raise BenchError(f"no chansounder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chansounder

    if Path(chansounder.__file__).resolve().parent != SRC / "chansounder":
        raise BenchError(f"imported chansounder from {chansounder.__file__}, "
                         f"not from {SRC}")
    return chansounder


def _worker(args, timeout):
    command = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s: {args[0]}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args[0]} failed:\n{done.stderr}")
    return done.stdout


def machine(chansounder) -> dict:
    import numpy

    block = {"python": platform.python_version(), "numpy": numpy.__version__,
             "cpu": platform.processor() or platform.machine(),
             "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    block["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if hasattr(chansounder, "KERNEL_BACKEND"):
        block["kernel_backend"] = chansounder.KERNEL_BACKEND
    return block


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def count_failed(campaigns, pinned, seed) -> int:
    """Campaigns that raised or whose output bytes differ from the pinned
    digests (at the pinned seed) or from the first good campaign
    (elsewhere)."""
    reference = next((c["digests"] for c in campaigns if c["ok"]), None)
    if pinned.get("seed") == seed:
        reference = pinned["sha256"]
    return sum(1 for c in campaigns if not c["ok"] or c["digests"] != reference)


def _median(campaigns, key, traced=False):
    return statistics.median(c[key] for c in campaigns
                             if c["ok"] and c["traced"] == traced)


def end_to_end(workload, scenario, result, records, setup, failed):
    import checks

    campaigns = result["campaigns"]
    campaign_s = _median(campaigns, "calibrated_s")
    setup_s = statistics.median(calibrated for _, calibrated in setup)
    print("wall: " + json.dumps({
        "campaign_s": _median(campaigns, "seconds"),
        "setup_s": statistics.median(wall for wall, _ in setup)}))
    errors = checks.oracle_errors(scenario, records)
    print("oracle: " + json.dumps(errors))
    loss_headroom = checks.headroom(errors["loss_err_db"],
                                    checks.LOSS_TOLERANCE_DB[workload])
    spread_tolerance = checks.DELAY_SPREAD_TOLERANCE_S[workload]
    spread_headroom = checks.headroom(
        errors["delay_spread_mean_err_ns"],
        None if spread_tolerance is None else spread_tolerance * 1e9)
    unflagged = sum(1 for r in records if not r["flags"])
    metrics = {
        "campaign_s": _metric(campaign_s, "s"),
        "records_per_s": _metric(len(records) / campaign_s, "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "correct_ratio": _metric((len(campaigns) - failed) / len(campaigns), "ratio"),
        "detected_fraction": _metric(unflagged / len(records), "ratio"),
        "loss_headroom": _metric(loss_headroom, "ratio"),
        "delay_spread_headroom": _metric(spread_headroom, "ratio"),
    }
    return {"correct": failed == 0 and loss_headroom >= 0 and spread_headroom >= 0,
            "attempted": len(campaigns), "failed": failed, "metrics": metrics}


def per_layer(result, failed):
    import tracer

    campaigns = result["campaigns"]
    traced = sum(1 for c in campaigns if c["traced"])
    layers = result["layers"]
    metrics = {}

    def stat(layer, key):
        return layers.get(layer, {}).get(key, 0) / traced

    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = _metric(stat(layer, "calls"), "count")
        metrics[f"{layer}.total_s"] = _metric(stat(layer, "total_s"), "s")
        metrics[f"{layer}.self_s"] = _metric(stat(layer, "self_s"), "s")
        if layer in tracer.SAMPLES_FROM_ARG | tracer.SAMPLES_FROM_RESULT:
            metrics[f"{layer}.samples"] = _metric(stat(layer, "samples"), "count")

    measured = stat("sliding.measure_sliding", "calls")
    no_signal = layers.get("sliding.measure_sliding", {}).get(
        "errors", {}).get("NoSignalError", 0) / traced
    metrics["pulse.matched_filter_passes"] = _metric(
        _ratio(stat("pulse.estimate_timing_phase", "calls")
               + stat("pulse.recover_symbols", "calls"), measured), "ratio")
    metrics["pn.correlations_per_segment"] = _metric(
        _ratio(stat("pn.circular_correlate", "calls"), measured), "ratio")
    metrics["sliding.no_signal"] = _metric(no_signal, "count")
    metrics["sliding.ok_ratio"] = _metric(_ratio(measured - no_signal, measured),
                                          "ratio")
    metrics["campaign.export_records.bytes"] = _metric(result["records_bytes"],
                                                       "bytes")

    traced_s = _median(campaigns, "seconds", traced=True)
    untraced_s = _median(campaigns, "seconds")
    traced_total = sum(c["seconds"] for c in campaigns if c["traced"])
    self_sum = sum(entry["self_s"] for entry in layers.values())
    metrics["trace.campaign_s"] = _metric(traced_s, "s")
    metrics["trace.untraced_campaign_s"] = _metric(untraced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    metrics["trace.self_sum_ratio"] = _metric(self_sum / traced_total, "ratio")
    return {"correct": failed == 0, "attempted": len(campaigns),
            "failed": failed, "metrics": metrics}


def run(args) -> dict:
    chansounder = _import_package()
    import checks
    import workloads
    from chansounder import campaign

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    print("machine: " + json.dumps(machine(chansounder)))
    scenario = workloads.WORKLOADS[args.workload](args.seed)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        scenario_path = work / "scenario.json"
        warmup_path = work / "warmup.json"
        campaign.save_scenario(scenario, scenario_path)
        campaign.save_scenario(dataclasses.replace(
            scenario, receiver_path=scenario.receiver_path[:WARMUP_LOCATIONS]),
            warmup_path)
        spans_path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        if args.trace:
            TRACES.mkdir(exist_ok=True)
        _worker(["campaigns", "--scenario", scenario_path, "--warmup", warmup_path,
                 "--out-dir", work / "out", "--seconds", args.seconds,
                 "--trace", args.trace, "--result", work / "result.json",
                 "--spans", spans_path],
                timeout=args.seconds + WORKER_GRACE_S)
        result = json.loads((work / "result.json").read_text())
        done = {c["traced"] for c in result["campaigns"] if c["ok"]}
        if done != ({False, True} if args.trace else {False}):
            raise BenchError("every campaign of a kind failed")
        records_path = work / "out" / "records.jsonl"
        if not records_path.is_file():
            raise BenchError("the last campaign wrote no records")
        result["records_bytes"] = records_path.stat().st_size
        failed = count_failed(result["campaigns"],
                              checks.load_golden().get(args.workload, {}), args.seed)
        if args.trace:
            return per_layer(result, failed)
        setup = [tuple(map(float, _worker(
                     ["setup", "--scenario", scenario_path, "--out-dir", work / "probe"],
                     timeout=SETUP_TIMEOUT_S).split()[-2:]))
                 for _ in range(SETUP_RUNS)]
        return end_to_end(args.workload, scenario, result,
                          checks.read_records(records_path), setup, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"campaignbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
