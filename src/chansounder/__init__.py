"""Desk-scale simulator of multi-transmitter wireless channel sounding.

Two sounding chains over synthetic multipath channels: a sliding
correlator (PN sequence, RRC shaping, correlation-derived delay
profiles) and a stepped-frequency sweeper (bin-centered tones, FFT-bin
powers, narrowband losses). Multiple transmitters share the medium by
TDMA slots or tone-frequency plans, and scripted campaigns turn receiver
paths into per-location measurement records and heat-map exports.
"""

from chansounder.campaign import (
    Scenario,
    Transmitter,
    export_heatmap,
    export_records,
    load_scenario,
    run_campaign,
    save_scenario,
)
from chansounder.channel import (
    EnvironmentModel,
    MultipathChannel,
    apply_channel,
    frequency_response,
    synthesize_channel,
)
from chansounder.exceptions import CaptureWindowError, NoSignalError
from chansounder.multitx import (
    LeakageModel,
    SceneTransmitter,
    TdmaSchedule,
    build_frequency_plan,
    build_schedule,
    compose_received,
    segment_capture,
)
from chansounder.pn import (
    ChipSequence,
    circular_correlate,
    generate_glfsr,
    save_chips,
)
from chansounder.pulse import (
    BasebandSignal,
    FilterTaps,
    design_rrc,
    estimate_timing_phase,
    modulate,
    read_iq,
    recover_symbols,
    shape_symbols,
)
from chansounder.sliding import (
    DelayProfile,
    SounderConfig,
    measure_sliding,
    rms_delay_spread,
    sound,
)
from chansounder.sweep import (
    FrequencySetup,
    bin_power,
    narrowband_losses,
)

__version__ = "0.1.0"
