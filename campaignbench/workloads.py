"""Scenario generators for the campaign benchmark workloads.

Each workload is a function of one integer seed, which becomes the
scenario's master seed; geometry is fixed per workload so that the seed
only moves channel draws, clock offsets and noise. Scenarios are built
from the package's public dataclasses and written with its own
``save_scenario``, so the program only ever sees a scenario file.
"""

from __future__ import annotations

import math

import numpy as np

from chansounder import campaign as cp
from chansounder import multitx
from chansounder.channel import EnvironmentModel


def snake_path(count, width=40.0, pitch=2.0):
    """Boustrophedon receiver walk, as in the criterion-9 acceptance test."""
    positions = []
    row = 0
    while len(positions) < count:
        xs = np.arange(1.0, width, 2.0)
        if row % 2:
            xs = xs[::-1]
        for x in xs:
            positions.append((float(x), 2.0 + pitch * row, 1.2))
            if len(positions) == count:
                break
        row += 1
    return tuple(positions)


def _indoor_environment():
    return EnvironmentModel(reference_loss_db=40.0, path_loss_exponent=2.8,
                            delay_spread_scale_s=9e-8, tap_count_range=(3, 6),
                            wall_loss_db=3.0, wall_grid_spacing_m=6.0)


def sliding_c9(seed):
    return cp.Scenario(
        mode="sliding",
        transmitters=(cp.Transmitter("tx1", (2.0, 2.0, 1.1)),
                      cp.Transmitter("tx2", (19.0, 6.0, 2.4)),
                      cp.Transmitter("tx3", (36.0, 2.0, 1.2))),
        receiver_path=snake_path(200),
        environment=_indoor_environment(), master_seed=seed)


def frequency_c9(seed):
    return cp.Scenario(
        mode="frequency",
        transmitters=(cp.Transmitter("tx1", (0.0, 0.0, 1.8)),
                      cp.Transmitter("tx2", (30.0, 20.0, 3.7))),
        receiver_path=snake_path(50, width=30.0, pitch=4.0),
        environment=EnvironmentModel(reference_loss_db=38.0,
                                     path_loss_exponent=2.1,
                                     delay_spread_scale_s=2.5e-7,
                                     tap_count_range=(2, 8)),
        master_seed=seed)


def sliding_nearfar(seed):
    powers = (0.0, -6.0, -12.0)
    xs = (2.0, 9.0, 16.0, 23.0, 30.0, 37.0)
    transmitters = tuple(
        cp.Transmitter(f"tx{k + 1}", (x, 2.0 + 8.0 * (k % 2), 1.5),
                       tx_power_db=powers[k % len(powers)])
        for k, x in enumerate(xs))
    return cp.Scenario(
        mode="sliding", transmitters=transmitters,
        receiver_path=snake_path(40),
        environment=_indoor_environment(), master_seed=seed,
        clocks=cp.ClockSetup(offset_std_s=0.3e-6),
        leakage=multitx.LeakageModel(parked_leakage_db=math.inf,
                                     inband_null_leakage_db=30.0),
        park_mode=multitx.PARK_IN_BAND, noise_power_dbfs=-85.0)


WORKLOADS = {"sliding-c9": sliding_c9, "frequency-c9": frequency_c9,
             "sliding-nearfar": sliding_nearfar}
