"""Accuracy percentages and the end-of-run count report."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .counting import Counters, CrossEvent, Direction
from .errors import ConfigError, UndefinedAccuracy


@dataclass(frozen=True)
class GroundTruth:
    """Actual IN/OUT/total counts a run is evaluated against."""

    true_in: int
    true_out: int
    true_total: int

    def __post_init__(self):
        if self.true_total != self.true_in + self.true_out:
            raise ConfigError(
                f"true_total {self.true_total} != true_in {self.true_in} "
                f"+ true_out {self.true_out}"
            )
        if min(self.true_in, self.true_out) < 0:
            raise ConfigError("ground-truth counts must be >= 0")


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

    Accuracy fields are present only when ground truth was supplied.
    """

    counters: Counters
    events: list[CrossEvent] = field(default_factory=list)
    ground_truth: Optional[GroundTruth] = None
    in_accuracy: Optional[float] = None
    out_accuracy: Optional[float] = None
    tc_accuracy: Optional[float] = None
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "in": self.counters.in_count,
            "out": self.counters.out_count,
            "total": self.counters.total_count,
            "events": [
                {"frame": e.frame, "track_id": e.track_id, "direction": e.direction.value}
                for e in self.events
            ],
            "params": self.params,
        }
        if self.ground_truth is not None:
            doc["true_in"] = self.ground_truth.true_in
            doc["true_out"] = self.ground_truth.true_out
            doc["true_total"] = self.ground_truth.true_total
            doc["in_accuracy"] = self.in_accuracy
            doc["out_accuracy"] = self.out_accuracy
            doc["tc_accuracy"] = self.tc_accuracy
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CountReport":
        counters = Counters(in_count=doc["in"], out_count=doc["out"],
                            total_count=doc["total"])
        events = [CrossEvent(frame=e["frame"], track_id=e["track_id"],
                             direction=Direction(e["direction"]))
                  for e in doc["events"]]
        truth = None
        if "true_in" in doc:
            truth = GroundTruth(doc["true_in"], doc["true_out"], doc["true_total"])
        return cls(counters=counters, events=events, ground_truth=truth,
                   in_accuracy=doc.get("in_accuracy"),
                   out_accuracy=doc.get("out_accuracy"),
                   tc_accuracy=doc.get("tc_accuracy"),
                   params=doc.get("params", {}))

    @classmethod
    def from_json(cls, text: str) -> "CountReport":
        return cls.from_dict(json.loads(text))


def build_report(counters: Counters, events: list[CrossEvent],
                 ground_truth: Optional[GroundTruth] = None,
                 params: Optional[dict[str, Any]] = None) -> CountReport:
    """Assemble the run report, computing accuracies when truth is given."""
    report = CountReport(counters=counters, events=list(events),
                         ground_truth=ground_truth, params=dict(params or {}))
    if ground_truth is not None:
        report.in_accuracy = accuracy_pct(counters.in_count, ground_truth.true_in)
        report.out_accuracy = accuracy_pct(counters.out_count, ground_truth.true_out)
        report.tc_accuracy = accuracy_pct(counters.total_count, ground_truth.true_total)
    return report
