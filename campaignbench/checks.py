"""Correctness gate and channel-oracle accuracy for campaign outputs.

The oracle redraws each record's true channel from public functions
only (``derive_seed``, ``synthesize_channel``, ``frequency_response``,
``rms_delay_spread``) and compares the recorded estimates with it. It
runs after the timed campaigns, never inside them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from chansounder import campaign as cp
from chansounder import channel, sliding

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# run_campaign draws frequency-mode channels on this delay grid and
# sliding-mode channels on the chip period
FREQUENCY_DELAY_GRID_S = 1e-9

# Accuracy tolerances per workload, checked by the gate and scaled into
# the headroom metrics. Path loss is judged by the worst unflagged
# record, which is steady across seeds. Delay spread is judged by the
# mean absolute error: its worst record is not steady (5 to 18 ns over
# seven sliding-c9 seeds). The criterion-9 limits sit ten to twenty
# times above today's errors, so the headroom metrics move when accuracy
# does. sliding-nearfar runs the near-far failure on purpose (in-band
# leakage of a shared PN sequence): its worst record is ~44 dB off and
# its mean delay-spread error ~3 us, so its limits only catch a failure
# that grows.
LOSS_TOLERANCE_DB = {"sliding-c9": 0.05, "frequency-c9": 0.05,
                     "sliding-nearfar": 60.0}
DELAY_SPREAD_TOLERANCE_S = {"sliding-c9": 3e-9, "frequency-c9": None,
                            "sliding-nearfar": 15e-6}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def read_records(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _true_channel(scenario, record):
    tx = next(t for t in scenario.transmitters if t.id == record["transmitter_id"])
    index = record["location_index"]
    grid = (scenario.sliding.chip_period_s if scenario.mode == cp.MODE_SLIDING
            else FREQUENCY_DELAY_GRID_S)
    seed = cp.derive_seed(scenario.master_seed, "chan", index, tx.id)
    chan, _ = channel.synthesize_channel(scenario.environment, tx.position,
                                         scenario.receiver_path[index], seed,
                                         delay_grid_s=grid)
    return tx, chan


def oracle_errors(scenario, records) -> dict:
    """Errors of the unflagged records against the oracle channel.

    Sliding: wideband loss against -10*log10 of the channel's total
    power, and RMS delay spread against the channel's own taps.
    Frequency: each carrier's loss against
    tx_power_db - 20*log10|H(f_c + f_o)|; no delay spread is recorded.
    """
    loss_err = 0.0
    spread_errs = []
    for record in records:
        if record["flags"]:
            continue
        tx, chan = _true_channel(scenario, record)
        if scenario.mode == cp.MODE_SLIDING:
            true_loss = -10.0 * math.log10(chan.total_power())
            loss_err = max(loss_err, abs(record["wideband_path_loss_db"] - true_loss))
            chip = scenario.sliding.chip_period_s
            lags = np.rint(chan.delays / chip).astype(np.int64)
            true_spread = sliding.rms_delay_spread(lags, chan.gains, chip)
            spread_errs.append(abs(record["rms_delay_spread_s"] - true_spread))
        else:
            carriers = np.asarray(scenario.frequency.carriers_hz, dtype=np.float64)
            response = channel.frequency_response(
                chan, carriers + record["tone_offset_hz"])
            true_losses = tx.tx_power_db - 20.0 * np.log10(np.abs(response))
            measured = np.asarray(record["narrowband_losses_db"], dtype=np.float64)
            loss_err = max(loss_err, float(np.max(np.abs(measured - true_losses))))
    return {"loss_err_db": loss_err,
            "delay_spread_mean_err_ns": 1e9 * float(np.mean(spread_errs or [0.0])),
            "delay_spread_max_err_ns": 1e9 * max(spread_errs, default=0.0)}


def headroom(error, tolerance):
    """Share of the tolerance left: 1 at a perfect match, 0 at the limit,
    negative beyond it. 1 when the workload records no such quantity."""
    return 1.0 if tolerance is None else 1.0 - error / tolerance
