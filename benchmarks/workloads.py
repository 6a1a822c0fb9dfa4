"""The benchmark's synthetic workloads: sparse, crowd and noise.

Every workload is a 640x480 scene with counting lines at rows 200 and 280 and
radius-9 heads moving vertically at 4 px/frame. A head enters at row 22 (or
row 458 when moving up) and leaves 110 frames later, after a full traversal
of both lines. Its centre rows are 2 mod 4, so it never sits exactly on a
line, where the analytic truth and a centroid nudged by noise pixels could
disagree about the zone. The seed drives the pixel noise and the per-lane phase
offsets; the counter only ever sees the rendered frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from headcount import ActorSpec, SceneSpec

WIDTH, HEIGHT = 640, 480
LINES = (200, 280)
RADIUS = 9
SPEED = 4.0
START_ROW = 22
LIFETIME = 110          # frames from row 22 to row 458
HEAD_INTENSITY = 220

# Frames before timing starts: the pipeline's own warm-up, during which it only
# updates the background.
TIMED_FROM = 30
# The noise scene's warm-up is longer: the frame-0 noise left in the estimate
# decays as 0.98**f, and foreground settles to about 5% only by frame 120
# (16% at frame 30, 7% at 90).
NOISE_WARMUP = 120

SPARSE_PERIOD = 120     # one head per lane at a time, with a 10-frame gap
CROWD_PERIOD = LIFETIME // 2
CROWD_LANES = 6
CROWD_LANE_GAP = 110    # more than twice the 50 px matching gate

# Ages that a head already in view when the lane starts may have, if that is
# before the counter's first detection frame TIMED_FROM. The head must either
# still be in its start zone then (age < 16) or never have been in it at the
# lane start (age >= 45); otherwise the analytic truth counts a crossing the
# counter cannot see.
_YOUNG_AGES = range(0, 16)
_OLD_AGES = range(45, LIFETIME)


@dataclass(frozen=True)
class Workload:
    """A rendered-scene recipe plus the pipeline settings it is counted with.

    ``params`` are PipelineConfig keyword arguments beside ``lines``; ``raw``
    selects one headerless raw file instead of a PGM directory as input.
    """

    name: str
    why: str
    scene: SceneSpec
    params: dict
    raw: bool
    timed_from: int = TIMED_FROM


def _lane(x: float, down: bool, phase: int, period: int, frames: int,
          start: int = 1) -> list[ActorSpec]:
    """Heads on one lane, spawned every ``period`` frames from ``phase``.

    Heads whose schedule begins before frame ``start`` appear there mid-way,
    so the lane is in its steady state from that frame on. Nothing is drawn
    on frame 0: it seeds the background estimate, and a head there would
    leave a ghost blob for about 95 frames.
    """
    y0, vy = (float(START_ROW), SPEED) if down else (float(HEIGHT - START_ROW), -SPEED)
    first = phase - period * ((phase - start + LIFETIME) // period)
    heads = []
    for spawn in range(first, frames, period):
        if spawn + LIFETIME <= start:
            continue
        age = max(0, start - spawn)
        if age and start < TIMED_FROM and age not in _YOUNG_AGES and age not in _OLD_AGES:
            raise ValueError(f"head of age {age} at frame {start} would break the truth")
        heads.append(ActorSpec(radius=RADIUS, start=(x, y0 + age * vy),
                               velocity=(0.0, vy), spawn_frame=spawn + age,
                               despawn_frame=spawn + LIFETIME,
                               intensity=HEAD_INTENSITY))
    return heads


def _sparse_heads(rng: random.Random, frames: int, start: int = 1) -> list[ActorSpec]:
    return [head
            for x, down in ((150.0, True), (470.0, False))
            for head in _lane(x, down, start + rng.randint(0, SPARSE_PERIOD // 2 - 1),
                              SPARSE_PERIOD, frames, start)]


def _crowd_heads(rng: random.Random, frames: int) -> list[ActorSpec]:
    # the youngest head of each lane is 0-15 frames old at frame 1, the other
    # one 55 frames older, so twelve heads are in view on every frame from 1
    return [head
            for lane in range(CROWD_LANES)
            for head in _lane(45.0 + CROWD_LANE_GAP * lane, lane % 2 == 0,
                              1 - rng.choice(_YOUNG_AGES), CROWD_PERIOD, frames)]


def build(name: str, seed: int, timed: int | None = None) -> Workload:
    """The named workload at ``seed``.

    ``timed`` overrides the number of timed frames. The defaults are whole
    periods of the head schedule, and every lane is in its steady state from
    frame 1, so every seed times the same number of head-frames.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sparse":
        frames = TIMED_FROM + (SPARSE_PERIOD if timed is None else timed)
        scene = SceneSpec(WIDTH, HEIGHT, frames, background_intensity=50,
                          noise_amplitude=5, seed=seed,
                          actors=_sparse_heads(rng, frames))
        return Workload(name, WHY[name], scene, {}, raw=False)
    if name == "crowd":
        frames = TIMED_FROM + (2 * CROWD_PERIOD if timed is None else timed)
        scene = SceneSpec(WIDTH, HEIGHT, frames, background_intensity=50,
                          noise_amplitude=5, seed=seed,
                          actors=_crowd_heads(rng, frames))
        return Workload(name, WHY[name], scene, {}, raw=False)
    if name == "noise":
        # heads start when detection does, on a settled background
        frames = NOISE_WARMUP + (SPARSE_PERIOD if timed is None else timed)
        scene = SceneSpec(WIDTH, HEIGHT, frames, background_intensity=50,
                          noise_amplitude=40, seed=seed,
                          actors=_sparse_heads(rng, frames, NOISE_WARMUP))
        return Workload(name, WHY[name], scene,
                        {"threshold": 38.0, "morph_radius": 0, "warmup": NOISE_WARMUP},
                        raw=True, timed_from=NOISE_WARMUP)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")


WHY = {
    "sparse": "at most two heads in view, so the per-pixel stages (read, update, "
              "subtract, open, label) carry the frame",
    "crowd": "twelve heads stay in view, so blob measurement dominates and the "
             "tracker does its most matching",
    "noise": "about 5% speckle foreground with opening off, so labeling and the "
             "per-component filter loop dominate; frames come from one raw file",
}
