"""Deterministic synthetic scenes with exact crossing ground truth.

Actors are filled disks (stand-ins for heads) moving at constant velocity over
a flat background with optional uniform noise. Because every trajectory is
analytic, the true IN/OUT counts are exact: the counter's own two-line rule
(``counting.advance``) is applied to each actor's exact positions, with no
detection or tracking, which makes rendered scenes usable as end-to-end
oracles.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Optional

import numpy as np

from .counting import Counters, CrossEvent, LinePair, advance, apply_event
from .errors import ConfigError, json_object, json_value, quote
from .frame_io import Frame
from .metrics import GroundTruth
from .tracking import Track


@dataclass
class ActorSpec:
    """One moving disk.

    Position at frame f is ``start + (f - spawn_frame) * velocity``; the actor
    exists on frames spawn_frame <= f < despawn_frame (None = scene end).
    Pick an intensity that differs from the scene background by more than the
    pipeline's subtraction threshold or the actor will be invisible to it.
    ``start`` and ``velocity`` (two finite numbers each) are kept as floats.
    """

    radius: int
    start: tuple[float, float]
    velocity: tuple[float, float]
    spawn_frame: int = 0
    despawn_frame: Optional[int] = None
    intensity: int = 255

    def __post_init__(self):
        self.start = _finite_pair("start", self.start)
        self.velocity = _finite_pair("velocity", self.velocity)
        if self.radius < 2:
            raise ConfigError(f"actor radius must be >= 2, got {self.radius}")
        if not 0 <= self.intensity <= 255:
            raise ConfigError(f"intensity must be in [0,255], got {self.intensity}")
        if self.spawn_frame < 0:
            raise ConfigError(f"spawn_frame must be >= 0, got {self.spawn_frame}")
        if self.despawn_frame is not None and self.despawn_frame <= self.spawn_frame:
            raise ConfigError("despawn_frame must be after spawn_frame")

    def alive_at(self, frame: int) -> bool:
        if frame < self.spawn_frame:
            return False
        return self.despawn_frame is None or frame < self.despawn_frame

    def position_at(self, frame: int) -> tuple[float, float]:
        dt = frame - self.spawn_frame
        return (self.start[0] + dt * self.velocity[0],
                self.start[1] + dt * self.velocity[1])


@dataclass
class SceneSpec:
    """A full synthetic sequence; identical specs render bit-identical frames."""

    width: int
    height: int
    frames: int
    background_intensity: int = 50
    noise_amplitude: int = 0
    seed: int = 0
    actors: list[ActorSpec] = field(default_factory=list)

    def __post_init__(self):
        for name in ("width", "height", "frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"scene {name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.background_intensity <= 255:
            raise ConfigError("background_intensity must be in [0,255]")
        if not 0 <= self.noise_amplitude <= 255:
            raise ConfigError("noise_amplitude must be in [0,255]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict[str, Any]:
        """The spec as the document ``from_dict`` reads, with the actors' start
        and velocity as tuples."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SceneSpec":
        """The spec in ``doc``, read like a config file: an unknown scene or
        actor key is an error, and every field but the actors and an actor's
        start and velocity is a JSON integer; a JSON 2.5 or true would
        otherwise reach range() or be truncated into the pixel array."""
        scene = _json_fields("scene", doc, cls, ("actors",))
        try:
            actors = [ActorSpec(**_json_fields("actor", actor, ActorSpec,
                                               ("start", "velocity")))
                      for actor in json_value("scene actors", scene.pop("actors", []), list)]
            return cls(**scene, actors=actors)
        except TypeError as exc:  # a required field is missing
            raise ConfigError(f"invalid scene spec: {exc}") from exc


def _finite_pair(name: str, value) -> tuple[float, float]:
    """``value`` as two floats; ConfigError unless it is a list or tuple of
    two finite numbers (a boolean is not a number, nor an int beyond a float)."""
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in value)):
        return float(value[0]), float(value[1])
    raise ConfigError(f"actor {name} must be two finite numbers, got {quote(value)}")


def _json_fields(owner: str, doc, cls, untyped: tuple) -> dict[str, Any]:
    """``doc`` as keyword arguments of the dataclass ``cls``: every key one of
    its fields, and each field but ``untyped`` a JSON integer, or null where
    its default is None."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {key: value if key in untyped
            else json_value(f"{owner} {key}", value, int, nullable=defaults[key] is None)
            for key, value in json_object(owner, doc, defaults).items()}


def render_frame(spec: SceneSpec, index: int) -> Frame:
    """Render one frame: background, per-frame seeded noise, then live disks."""
    try:
        img = np.full((spec.height, spec.width), spec.background_intensity, np.int16)
    except (ValueError, MemoryError) as exc:  # numpy's "array is too big"
        raise ConfigError(f"the scene cannot be rendered: {exc}") from None
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng([spec.seed, index])
        img += rng.integers(-spec.noise_amplitude, spec.noise_amplitude + 1,
                            size=img.shape, dtype=np.int16)
    yy, xx = np.ogrid[:spec.height, :spec.width]
    for actor in spec.actors:
        if not actor.alive_at(index):
            continue
        cx, cy = actor.position_at(index)
        disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= actor.radius ** 2
        img[disk] = actor.intensity
    pixels = np.clip(img, 0, 255).astype(np.uint8)
    return Frame(index, pixels)


def render_scene(spec: SceneSpec) -> Iterator[Frame]:
    """Yield the scene's frames in order."""
    for i in range(spec.frames):
        yield render_frame(spec, i)


def ground_truth_events(spec: SceneSpec,
                        lines: LinePair) -> tuple[GroundTruth, list[CrossEvent]]:
    """Exact crossing truth: each actor's analytic disk centers, frame by
    frame, fed to ``counting.advance`` as one perfectly tracked ``Track``,
    and the CrossEvents it returns tallied with ``apply_event``, as in the
    pipeline.

    Returns the GroundTruth and those events, each with ``track_id`` the
    actor's index in ``spec.actors``, ordered by frame and then that index.
    Event frames refer to the analytic trajectory; a pipeline run on the
    rendered scene should agree on the counts, not necessarily on the frames.
    """
    events: list[CrossEvent] = []
    counters = Counters()
    for index, actor in enumerate(spec.actors):
        track = Track(index, actor.start)
        last = min(actor.despawn_frame or spec.frames, spec.frames)
        for f in range(actor.spawn_frame, last):
            track.position = actor.position_at(f)
            event = advance(track, lines, f)
            if event is not None:
                apply_event(counters, event)
                events.append(event)
    events.sort(key=lambda event: (event.frame, event.track_id))
    return GroundTruth(counters.in_count, counters.out_count, counters.total_count), events
