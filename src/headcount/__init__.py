"""Bidirectional people counting over grayscale frame sequences.

Pipeline stages: adaptive background subtraction, morphological cleanup,
shape-filtered blob detection, centroid tracking, and two-virtual-line IN/OUT
counting, plus accuracy metrics and a synthetic scene generator for
verification.
"""

from .background import BackgroundModel, BinaryMask, morph_open
from .blobs import (BlobFilterParams, BlobKeypoint, BlobMeasurements,
                    ComponentLabels, circularity, convexity, detect_blobs,
                    inertia_ratio, label_components, measure)
from .counting import (Counters, CrossEvent, Direction, LinePair, Zone, advance,
                       apply_event, classify_zone)
from .frame_io import (Frame, SequenceSpec, circle_points, load_frame,
                       open_sequence, write_annotated, write_frame)
from .metrics import CountReport, GroundTruth, accuracy_pct
from .pipeline import CountingPipeline, PipelineConfig, run
from .synthetic import ActorSpec, SceneSpec, ground_truth_events, render_frame, render_scene
from .tracking import Track, Tracker, TrackerConfig, associate
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ActorSpec", "BackgroundModel", "BinaryMask",
    "BlobFilterParams", "BlobKeypoint", "BlobMeasurements", "ComponentLabels",
    "CountReport", "Counters", "CountingPipeline", "CrossEvent", "Direction",
    "Frame", "GroundTruth", "LinePair", "PipelineConfig",
    "SceneSpec", "SequenceSpec", "Track", "Tracker", "TrackerConfig", "Zone",
    "accuracy_pct", "advance", "apply_event", "associate",
    "circle_points", "circularity", "classify_zone", "convexity",
    "detect_blobs", "errors", "ground_truth_events", "inertia_ratio",
    "label_components", "load_frame", "measure", "morph_open", "open_sequence",
    "render_frame", "render_scene", "run", "write_annotated", "write_frame",
]
