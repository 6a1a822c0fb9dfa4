"""Spans around the counter's public callables, taken from outside the package.

``Tracer`` replaces each traced callable at the binding the package calls it
through (a module global or a class attribute), so the unmodified
``CountingPipeline.process_frame`` runs, and puts the originals back on exit.
Spans are kept in memory as (name, start_ns, end_ns, parent, frame) with the
frame index as the shared id; ``summarize`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter_ns

import numpy as np

# span name -> (module, attribute owner or None for a module global, attribute)
TRACED = {
    "pipeline.process_frame": ("headcount.pipeline", "CountingPipeline", "process_frame"),
    "background.update": ("headcount.background", "BackgroundModel", "update"),
    "background.subtract": ("headcount.background", "BackgroundModel", "subtract"),
    "background.morph_open": ("headcount.pipeline", None, "morph_open"),
    "blobs.detect_blobs": ("headcount.pipeline", None, "detect_blobs"),
    "blobs.label_components": ("headcount.blobs", None, "label_components"),
    "blobs.measure": ("headcount.blobs", None, "measure"),
    "tracking.step": ("headcount.tracking", "Tracker", "step"),
    "counting.advance": ("headcount.pipeline", None, "advance"),
}
READ = "frame_io.read"
INSTRUMENT = "trace.count"   # time the tracer spends on its own counts

# span name -> what to count from (args, result); counted outside the span
_COUNTS = {
    "background.subtract": lambda args, mask: int(np.count_nonzero(mask.bits)),
    "background.morph_open": lambda args, mask: int(np.count_nonzero(mask.bits)),
    "blobs.label_components": lambda args, labels: labels.count,
    "blobs.detect_blobs": lambda args, keypoints: len(keypoints),
    "tracking.step": lambda args, ids: (len(args[0].tracks), len(ids[0]), len(ids[1])),
    "counting.advance": lambda args, event: event is not None,
}


def _owner(module: str, owner: str | None):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, int, object]] = []
        self.frame = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.frame)
        count = _COUNTS.get(name)
        if count is not None:
            self.counts.append((name, self.frame, count(args, result)))
            self.spans.append((INSTRUMENT, end, perf_counter_ns(), parent, self.frame))
        return result

    def _wrap(self, name, fn):
        tracer = self

        if name == "pipeline.process_frame":
            @functools.wraps(fn)
            def wrapper(pipeline, frame):
                tracer.frame = frame.index
                return tracer._record(name, fn, (pipeline, frame), {})
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, args, kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        for name, (module, owner, attr) in TRACED.items():
            target = _owner(module, owner)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def frames(self, iterator):
        """Yield from a frame iterator, recording each read as a root span."""
        while True:
            start = perf_counter_ns()
            frame = next(iterator, None)
            end = perf_counter_ns()
            if frame is None:
                return
            self.spans.append((READ, start, end, -1, frame.index))
            yield frame


def originals() -> dict[str, object]:
    """The callables currently bound at every traced binding."""
    return {name: getattr(_owner(module, owner), attr)
            for name, (module, owner, attr) in TRACED.items()}


def summarize(spans: list, counts: list, timed_from: int, pixels: int,
              scale: dict[int, float] | None = None) -> tuple[dict, list]:
    """Per-layer numbers from one traced pass, over frames >= ``timed_from``.

    Times are ms per timed frame and counts per timed frame unless named a
    total; ``scale`` maps a frame index to the factor its times are scaled
    by (default 1). Returns (metrics, names of metrics whose stage never ran).
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ns: dict[str, float] = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, frame in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, frame) in enumerate(spans):
        if frame < timed_from:
            continue
        f = scale[frame] if scale else 1.0
        busy[name] = busy.get(name, 0) + (end - start) * f
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i]) * f

    # the opening slot: from subtract returning to detect_blobs being entered,
    # minus the tracer's own counting; it holds morph_open where opening runs
    slot_ns = 0
    last_subtract_end = None
    for name, start, end, parent, frame in spans:
        if frame < timed_from:
            continue
        f = scale[frame] if scale else 1.0
        if name == "background.subtract":
            last_subtract_end = end
        elif name == INSTRUMENT and last_subtract_end is not None:
            slot_ns -= (end - start) * f
        elif name == "blobs.detect_blobs" and last_subtract_end is not None:
            slot_ns += (start - last_subtract_end) * f
            last_subtract_end = None

    totals: dict[str, object] = {}
    fg_subtract = fg_opened = 0
    live = spawned = expired = events = 0
    for name, frame, value in counts:
        if frame < timed_from:
            continue
        if name == "background.subtract":
            fg_subtract += value
        elif name == "background.morph_open":
            fg_opened += value
        elif name == "tracking.step":
            live += value[0]
            spawned += value[1]
            expired += value[2]
        elif name == "counting.advance":
            events += value
        else:
            totals[name] = totals.get(name, 0) + value

    n = calls.get("pipeline.process_frame", 0)
    if n == 0:
        raise ValueError("no timed frames in the traced pass")

    def ms(ns):
        return ns / n / 1e6

    opened = calls.get("background.morph_open", 0) > 0
    measure_calls = calls.get("blobs.measure", 0)
    keypoints = totals.get("blobs.detect_blobs", 0)
    metrics = {
        "frame_io.read_ms": ms(busy.get(READ, 0)),
        "background.update_ms": ms(busy.get("background.update", 0)),
        "background.subtract_ms": ms(busy.get("background.subtract", 0)),
        "background.fg_frac": fg_subtract / (n * pixels),
        "background.open_ms": ms(slot_ns),
        "background.open_kept_frac": fg_opened / fg_subtract if opened and fg_subtract else 1.0,
        "blobs.label_ms": ms(busy.get("blobs.label_components", 0)),
        "blobs.components": totals.get("blobs.label_components", 0) / n,
        "blobs.filter_self_ms": ms(self_ns.get("blobs.detect_blobs", 0)),
        "blobs.measure_ms": ms(busy.get("blobs.measure", 0)),
        "blobs.measure_calls": measure_calls / n,
        "blobs.keypoints": keypoints / n,
        "blobs.keep_ratio": keypoints / measure_calls if measure_calls else 0.0,
        "tracking.step_ms": ms(busy.get("tracking.step", 0)),
        "tracking.live_tracks": live / n,
        "tracking.spawned": spawned,
        "tracking.expired": expired,
        "counting.advance_ms": ms(busy.get("counting.advance", 0)),
        "counting.advance_calls": calls.get("counting.advance", 0) / n,
        "counting.events": events,
        "pipeline.self_ms": ms(self_ns.get("pipeline.process_frame", 0)),
    }
    na = []
    if not opened:
        na += ["background.open_ms", "background.open_kept_frac"]
    if not measure_calls:
        na.append("blobs.keep_ratio")
    return metrics, na


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over several traced passes."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
