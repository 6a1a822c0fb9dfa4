"""Per-frame dataflow: subtract -> clean -> detect -> track -> count.

Stages are composed feed-forward with no feedback paths, so each one stays
independently testable. Only the current frame is held in memory; state is
the background estimate, the live tracks, and the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .background import (DEFAULT_ALPHA, DEFAULT_MORPH_RADIUS, DEFAULT_THRESHOLD,
                         BackgroundModel, check_params, morph_open)
from .blobs import (DEFAULT_CONNECTIVITY, BlobFilterParams, BlobKeypoint,
                    check_connectivity, detect_blobs)
from .counting import Counters, CrossEvent, LinePair, advance, apply_event
from .errors import ConfigError, EmptySequence, OrderError, json_object, json_value
from .frame_io import Frame
from .metrics import CountReport, GroundTruth
from .tracking import Tracker, TrackerConfig

MIN_FRAME_SIDE = 8


# The pipeline's parameters besides ``lines``, each under one flat key that
# names its ``count`` flag (``--min-area``), its ``--config`` key, its entry
# in the report's ``params`` and its field of PipelineConfig or of a section
# of it: key -> (section, or None for a field of its own; JSON type; help
# text). Defaults live on the dataclass fields only.
PARAMS: dict[str, tuple[Optional[str], type, str]] = {
    "invert_direction": (None, bool, "count downward crossings as OUT instead of IN"),
    "alpha": (None, float, "background learning rate in (0,1)"),
    "threshold": (None, float, "foreground intensity threshold"),
    "warmup": (None, int, "frames used only to settle the background"),
    "morph_radius": (None, int, "opening radius for mask cleanup (0 disables)"),
    "connectivity": (None, int, "blob connectivity"),
    "min_area": ("blob", int, "minimum blob area"),
    "max_area": ("blob", int, "maximum blob area"),
    "min_circularity": ("blob", float, "lower bound on 4*pi*area/perimeter^2"),
    "min_convexity": ("blob", float, "lower bound on area/hull_area"),
    "min_inertia": ("blob", float, "lower bound on the principal-moment ratio"),
    "max_match_dist": ("tracker", float, "matching gate in pixels"),
    "max_missed": ("tracker", int, "frames a track may go unseen before expiring"),
}


@dataclass
class PipelineConfig:
    """Effective configuration of one counting run."""

    lines: LinePair
    alpha: float = DEFAULT_ALPHA
    threshold: float = DEFAULT_THRESHOLD
    warmup: int = 30
    morph_radius: int = DEFAULT_MORPH_RADIUS
    connectivity: int = DEFAULT_CONNECTIVITY
    blob: BlobFilterParams = field(default_factory=BlobFilterParams)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    invert_direction: bool = False

    def __post_init__(self):
        # checked here too so a bad value fails before any frame is read
        check_params(self.alpha, self.threshold)
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.morph_radius < 0:
            raise ConfigError("morph_radius must be >= 0")
        check_connectivity(self.connectivity)

    def to_params_dict(self) -> dict[str, Any]:
        """Flat snapshot of every effective parameter, for the report."""
        params: dict[str, Any] = {"lines": [self.lines.line_in_y,
                                            self.lines.line_out_y]}
        for key, (section, _, _) in PARAMS.items():
            owner = self if section is None else getattr(self, section)
            params[key] = getattr(owner, key)
        return params

    @classmethod
    def from_params(cls, doc) -> "PipelineConfig":
        """The inverse of ``to_params_dict``: ``doc`` must hold ``lines`` and may
        omit any other key, null only where its field defaults to None."""
        json_object("config", doc, ("lines", *PARAMS))
        if doc.get("lines") is None:
            raise ConfigError("counting lines are required (--lines Y1,Y2)")
        sections = {None: cls, "blob": BlobFilterParams, "tracker": TrackerConfig}
        kwargs: dict = {section: {} for section in sections}
        for key, (section, kind, _) in PARAMS.items():
            if key in doc:
                default = sections[section].__dataclass_fields__[key].default
                kwargs[section][key] = json_value(key, doc[key], kind,
                                                  nullable=default is None)
        return cls(LinePair.from_json(doc["lines"]),
                   blob=BlobFilterParams(**kwargs["blob"]),
                   tracker=TrackerConfig(**kwargs["tracker"]), **kwargs[None])


class CountingPipeline:
    """Streaming people counter over one ordered frame sequence."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.counters = Counters()
        self.events: list[CrossEvent] = []
        self.frames_processed = 0
        self._model: Optional[BackgroundModel] = None
        self._tracker = Tracker(config.tracker)

    def _init_model(self, frame: Frame) -> None:
        if frame.width < MIN_FRAME_SIDE or frame.height < MIN_FRAME_SIDE:
            raise ConfigError(
                f"frames must be at least {MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}, "
                f"got {frame.width}x{frame.height}"
            )
        self.config.lines.check_fits(frame.height)
        self._model = BackgroundModel(frame, alpha=self.config.alpha,
                                      threshold=self.config.threshold)

    def process_frame(self, frame: Frame) -> list[BlobKeypoint]:
        """Run all stages on one frame and return its keypoints, none during
        warmup; the crossings it produced are appended to ``events``."""
        if frame.index != self.frames_processed:
            raise OrderError(f"expected frame {self.frames_processed}, got {frame.index}")
        self.frames_processed += 1

        # each frame moves the estimate once: by update during warmup, by
        # subtract, which masks the frame first, after it. Frame 0 seeds the
        # estimate, so where it is masked its difference and step are 0
        if self._model is None:
            self._init_model(frame)
        elif frame.index < self.config.warmup:
            self._model.update(frame)

        if frame.index < self.config.warmup:
            return []

        mask = self._model.subtract(frame)
        if self.config.morph_radius > 0:
            mask = morph_open(mask, self.config.morph_radius)
        keypoints = detect_blobs(mask, self.config.blob, self.config.connectivity)

        self._tracker.step(keypoints)
        for track in self._tracker.tracks:
            if track.missed:
                continue  # not observed this frame, no new position to classify
            event = advance(track, self.config.lines, frame.index)
            if event is None:
                continue
            if self.config.invert_direction:
                event = CrossEvent(event.frame, event.track_id,
                                   event.direction.flipped())
            apply_event(self.counters, event)
            self.events.append(event)
        return keypoints

    def report(self, ground_truth: Optional[GroundTruth] = None) -> CountReport:
        return CountReport(self.counters, list(self.events), ground_truth,
                           self.config.to_params_dict())


def run(frames: Iterable[Frame], config: PipelineConfig,
        ground_truth: Optional[GroundTruth] = None) -> CountReport:
    """Fold the pipeline over a frame sequence and build the report."""
    pipeline = CountingPipeline(config)
    for frame in frames:
        pipeline.process_frame(frame)
    if pipeline.frames_processed == 0:
        raise EmptySequence("no frames to process")
    return pipeline.report(ground_truth)
