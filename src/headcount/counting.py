"""Two-virtual-line crossing semantics and the IN/OUT counters.

Two horizontal lines split the image into zone A (above the first line),
zone M (between, boundary rows included), and zone B (below the second).
A count requires a full traversal: a track whose origin zone is A scores IN
the moment it reaches B, and vice versa for OUT. Touching or oscillating
around a single line never counts, which is what disambiguates simultaneous
crossers that defeat a single tripwire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError, json_value, quote

if TYPE_CHECKING:  # tracking imports Zone from here
    from .tracking import Track


class Zone(str, enum.Enum):
    A = "A"   # above both lines
    M = "M"   # between the lines, boundaries included
    B = "B"   # below both lines


class Direction(str, enum.Enum):
    IN = "IN"
    OUT = "OUT"

    def flipped(self) -> "Direction":
        return Direction.OUT if self is Direction.IN else Direction.IN


@dataclass(frozen=True)
class LinePair:
    """The two counting rows. The IN line must lie above the OUT line and no
    higher than row 1, so that zone A (the rows above it) is not empty. That
    the OUT line leaves zone B a row depends on the frame height; see
    ``check_fits``."""

    line_in_y: int
    line_out_y: int

    def __post_init__(self):
        if self.line_in_y < 1:
            raise ConfigError(f"line_in_y must be >= 1, got {quote(self.line_in_y)}")
        if self.line_in_y >= self.line_out_y:
            raise ConfigError(
                f"line_in_y ({quote(self.line_in_y)}) must be above "
                f"line_out_y ({quote(self.line_out_y)})"
            )

    @classmethod
    def from_json(cls, value) -> "LinePair":
        """The pair in a JSON array of two integers, as a config, a report's
        ``params`` or a scene spec gives ``lines``; ConfigError otherwise."""
        pair = json_value("lines", value, list)
        if len(pair) != 2:
            raise ConfigError(f"lines must hold two integers Y1,Y2, got {quote(pair)}")
        return cls(*(json_value("lines", y, int) for y in pair))

    def check_fits(self, height: int) -> None:
        """Raise ConfigError unless zone B, the rows below the OUT line, has
        a row in a frame of ``height`` rows."""
        if self.line_out_y > height - 2:
            raise ConfigError(
                f"counting lines {quote(self.line_in_y)},{quote(self.line_out_y)} do not "
                f"fit a frame of height {height}: line_out_y must be <= {height - 2}"
            )


@dataclass(frozen=True)
class CrossEvent:
    frame: int
    track_id: int
    direction: Direction


@dataclass
class Counters:
    """Monotone IN/OUT counters; the total is derived from them."""

    in_count: int = 0
    out_count: int = 0

    @property
    def total_count(self) -> int:
        return self.in_count + self.out_count


def classify_zone(centroid: tuple[float, float], lines: LinePair) -> Zone:
    """Zone of a centroid; points exactly on a line belong to the middle
    zone, which keeps a centroid resting on a line from chattering."""
    y = centroid[1]
    if y < lines.line_in_y:
        return Zone.A
    if y > lines.line_out_y:
        return Zone.B
    return Zone.M


def advance(track: "Track", lines: LinePair, frame: int) -> Optional[CrossEvent]:
    """Feed a track's position, observed on ``frame``, into its traversal.

    The first position sets ``track.origin_zone``. Returns a CrossEvent on the
    frame the far zone is first reached (zone jumps that skip M still
    score), after which the origin resets so each traversal counts exactly
    once. Mutates ``track.origin_zone`` in place.
    """
    zone = classify_zone(track.position, lines)
    if track.origin_zone is None:
        track.origin_zone = zone

    event = None
    if track.origin_zone is Zone.A and zone is Zone.B:
        event = CrossEvent(frame=frame, track_id=track.id, direction=Direction.IN)
    elif track.origin_zone is Zone.B and zone is Zone.A:
        event = CrossEvent(frame=frame, track_id=track.id, direction=Direction.OUT)
    if event is not None:
        track.origin_zone = zone
    return event


def apply_event(counters: Counters, event: CrossEvent) -> Counters:
    """Apply one crossing to the counters (mutates and returns them)."""
    if event.direction is Direction.IN:
        counters.in_count += 1
    else:
        counters.out_count += 1
    return counters
