"""Accuracy percentages and the end-of-run count report, and the one reader
and writer of truth and report documents."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from .counting import Counters, CrossEvent, Direction
from .errors import ConfigError, UndefinedAccuracy, json_object, json_value

# report key of each accuracy -> (its Counters field, its GroundTruth field)
_ACCURACIES = {"in_accuracy": ("in_count", "true_in"),
               "out_accuracy": ("out_count", "true_out"),
               "tc_accuracy": ("total_count", "true_total")}
# every key of a report; a truth document may hold them all, since it may be a report
_KEYS = ("in", "out", "total", "events", "params", "true_in", "true_out", "true_total",
         *_ACCURACIES)


def _counts(doc: dict[str, Any], keys: tuple[str, str, str]) -> list[int]:
    """The in, out and total counts under ``keys`` in ``doc``; ConfigError
    unless each is a JSON integer, in and out are >= 0 and total == in + out."""
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"missing keys {missing}")
    n_in, n_out, total = (json_value(key, doc[key], int) for key in keys)
    if min(n_in, n_out) < 0 or total != n_in + n_out:
        raise ConfigError(f"counts must be >= 0 with {keys[2]} == {keys[0]} + "
                          f"{keys[1]}, got {dict(zip(keys, (n_in, n_out, total)))}")
    return [n_in, n_out, total]


@dataclass(frozen=True)
class GroundTruth:
    """Actual IN/OUT/total counts a run is evaluated against."""

    true_in: int
    true_out: int
    true_total: int

    KEYS = ("true_in", "true_out", "true_total")

    def __post_init__(self):
        _counts(self.to_dict(), self.KEYS)

    def to_dict(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in self.KEYS}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "GroundTruth":
        """The truth in ``doc``, which may be a report holding its truth: a
        document with any other report key must be a valid report."""
        truth = cls(*_counts(json_object("truth", doc, _KEYS), cls.KEYS))
        if set(doc) - set(cls.KEYS):
            CountReport.from_dict(doc)
        return truth


def accuracy_pct(count: int, true_count: int) -> float:
    """count / true_count * 100.

    Overcounting yields values above 100 on purpose; clamping would hide it.
    Both zero is perfect agreement (100.0); counting something that truly
    never happened has no defined ratio and raises UndefinedAccuracy, and so
    does a ratio too large for a float.
    """
    if true_count < 0:
        raise ConfigError(f"true count must be >= 0, got {true_count}")
    if true_count == 0:
        if count == 0:
            return 100.0
        raise UndefinedAccuracy(f"counted {count} with a true count of 0")
    try:
        pct = count / true_count * 100.0
    except OverflowError:  # an integer quotient beyond the float range
        pct = math.inf
    if math.isinf(pct):
        raise UndefinedAccuracy(f"{count} / {true_count} is too large for a float")
    return pct


@dataclass
class CountReport:
    """Everything a counting run produced, serializable to a flat JSON object.

    The accuracies are derived from the counters and the ground truth, and
    are None without ground truth.
    """

    counters: Counters
    events: list[CrossEvent] = field(default_factory=list)
    ground_truth: Optional[GroundTruth] = None
    params: dict[str, Any] = field(default_factory=dict)

    def accuracies(self) -> dict[str, float]:
        """Each accuracy under its report key; empty without ground truth."""
        if self.ground_truth is None:
            return {}
        return {key: accuracy_pct(getattr(self.counters, count),
                                  getattr(self.ground_truth, true_count))
                for key, (count, true_count) in _ACCURACIES.items()}

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "in": self.counters.in_count,
            "out": self.counters.out_count,
            "total": self.counters.total_count,
            "events": [asdict(e) for e in self.events],
            "params": self.params,
        }
        if self.ground_truth is not None:
            doc.update(self.ground_truth.to_dict(), **self.accuracies())
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CountReport":
        """The report ``to_dict`` wrote; ConfigError unless every count is a
        consistent JSON integer and every stored accuracy the derived one.
        ``events`` and ``params`` may be absent. The events may be fewer than
        the counts, but tally no more IN or OUT, and no two share a frame and
        track id, since a track is advanced once per frame. Non-empty
        ``params`` must be a valid ``--config`` document, as ``count`` writes."""
        from .pipeline import PipelineConfig  # pipeline imports this module
        n_in, n_out, _ = _counts(json_object("report", doc, _KEYS), ("in", "out", "total"))
        events = [_event(e) for e in json_value("events", doc.get("events", []), list)]
        directions = [e.direction for e in events]
        if directions.count(Direction.IN) > n_in or directions.count(Direction.OUT) > n_out:
            raise ConfigError(f"events must hold at most in={n_in} IN and out={n_out} OUT")
        if len({(e.frame, e.track_id) for e in events}) < len(events):
            raise ConfigError("two events share a frame and track_id")
        params = json_value("params", doc.get("params", {}), dict)
        if params:
            PipelineConfig.from_params(params)
        has_truth = any(key in doc for key in (*GroundTruth.KEYS, *_ACCURACIES))
        truth = GroundTruth(*_counts(doc, GroundTruth.KEYS)) if has_truth else None
        report = cls(Counters(n_in, n_out), events, truth, params)
        if {key: doc[key] for key in _ACCURACIES if key in doc} != report.accuracies():
            raise ConfigError(f"stored accuracies differ from the derived "
                              f"{report.accuracies()}")
        return report


def _event(doc) -> CrossEvent:
    doc = json_object("event", doc, ("frame", "track_id", "direction"))
    if doc.get("direction") not in ("IN", "OUT"):
        raise ConfigError("each event must be an object with direction IN or OUT")
    frame = json_value("event frame", doc.get("frame"), int)
    track_id = json_value("event track_id", doc.get("track_id"), int)
    if min(frame, track_id) < 0:  # frame indices and track ids count from 0
        raise ConfigError(f"event frame and track_id must be >= 0, "
                          f"got {frame} and {track_id}")
    return CrossEvent(frame, track_id, Direction(doc["direction"]))
