"""Outside-in span tracing of chansounder's public functions.

Each traced function is replaced, for the duration of a traced campaign,
at every name under which a loaded ``chansounder`` module holds it. So
``pn.circular_correlate`` is wrapped in ``pn`` and also where ``pulse``
and ``sliding`` imported it, which is the name their calls look up.
Nothing inside the package is edited. Spans live in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# layers wrapped in a traced campaign, named <module>.<function>
LAYERS = (
    "cli.main",
    "campaign.load_scenario",
    "campaign.run_campaign",
    "campaign.export_records",
    "campaign.export_heatmap",
    "pn.generate_glfsr",
    "pulse.design_rrc",
    "pulse.modulate",
    "multitx.build_schedule",
    "multitx.build_frequency_plan",
    "channel.synthesize_channel",
    "channel.apply_channel",
    "multitx.compose_received",
    "multitx.segment_capture",
    "sliding.measure_sliding",
    "pulse.estimate_timing_phase",
    "pulse.recover_symbols",
    "sliding.sound",
    "pn.circular_correlate",
    "sweep.compose_sweep_capture",
    "sweep.received_tone",
    "sweep.bin_power",
)

# layers that report how many samples they handled: from the first
# positional argument (the input signal) or from the returned signal
SAMPLES_FROM_ARG = {"pulse.estimate_timing_phase", "pulse.recover_symbols",
                    "multitx.segment_capture", "channel.apply_channel"}
SAMPLES_FROM_RESULT = {"multitx.compose_received", "sweep.received_tone"}


def _length(obj):
    try:
        return len(obj)
    except TypeError:
        return None


def replace_everywhere(qualified: str, make_replacement):
    """Rebind a chansounder function under every name that holds it.

    Returns the (namespace, attribute, original) triples to restore, or
    an empty list when the module or function no longer exists.
    """
    module_name, func_name = qualified.rsplit(".", 1)
    try:
        module = importlib.import_module(f"chansounder.{module_name}")
    except ModuleNotFoundError:
        return []
    original = getattr(module, func_name, None)
    if original is None:
        return []
    replacement = make_replacement(original)
    patched = []
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "chansounder"
                                  or name.startswith("chansounder.")):
            continue
        namespace = vars(loaded)
        for attr, value in list(namespace.items()):
            if value is original:
                patched.append((loaded, attr, original))
                setattr(loaded, attr, replacement)
    return patched


def restore(patched):
    for loaded, attr, original in reversed(patched):
        setattr(loaded, attr, original)


class Tracer:
    """Collects spans (name, start, end, parent, error, samples).

    Entered once per traced campaign; spans accumulate across entries,
    and a span with parent -1 is a campaign's root call.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        for layer in LAYERS:
            self._patched += replace_everywhere(
                layer, lambda fn, layer=layer: self._wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        restore(self._patched)
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                samples = None
                if name in SAMPLES_FROM_ARG and args:
                    samples = _length(args[0])
                elif name in SAMPLES_FROM_RESULT and result is not None:
                    samples = _length(result)
                spans[index] = (name, start, end, parent, error, samples)

        return traced


def layer_stats(spans):
    """Per-layer calls, total and self seconds, samples and errors.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for index, (name, start, end, _, error, samples) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "samples": 0,
                                        "errors": {}})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["samples"] += samples or 0
        if error is not None:
            entry["errors"][error] = entry["errors"].get(error, 0) + 1
    return stats
