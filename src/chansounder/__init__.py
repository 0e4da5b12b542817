"""Desk-scale simulator of multi-transmitter wireless channel sounding.

Two sounding chains over synthetic multipath channels: a sliding
correlator (PN sequence, RRC shaping, correlation-derived delay
profiles) and a stepped-frequency sweeper (bin-centered tones, FFT-bin
powers, narrowband losses). Multiple transmitters share the medium by
TDMA slots or tone-frequency plans, and scripted campaigns turn receiver
paths into per-location measurement records and heat-map exports.
"""
