"""Identity-stable centroid tracking across frames.

Matching is greedy globally-nearest: the closest (track, keypoint) pair within
the distance gate is paired first, then the next closest among the rest, with
deterministic tie-breaking. Entrance cameras see small frame-to-frame motion
relative to person spacing, so this is as good as optimal assignment here and
keeps the tracker a pure function of the last centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .blobs import BlobKeypoint
from .counting import Zone
from .errors import ConfigError


@dataclass
class TrackerConfig:
    max_match_dist: float = 50.0
    max_missed: int = 5

    def __post_init__(self):
        # nan would pass a <= 0 test and then match nothing
        if not (math.isfinite(self.max_match_dist) and self.max_match_dist > 0):
            raise ConfigError(f"max_match_dist must be finite and > 0, "
                              f"got {self.max_match_dist}")
        if self.max_missed < 0:
            raise ConfigError("max_missed must be >= 0")


@dataclass(eq=False)
class Track:
    """One tracked object: id, last observed centroid, frames missed since,
    and the zone its traversal started in, or last scored in, as
    ``counting.advance`` sets it (None until then)."""

    id: int
    position: tuple[float, float]
    missed: int = 0
    origin_zone: Optional[Zone] = None


@dataclass
class Assignment:
    """Result of matching tracks to keypoints; keypoints are referenced by
    their index in the input list."""

    matches: list[tuple[Track, int]]
    unmatched_tracks: list[Track]
    unmatched_keypoints: list[int]


def associate(tracks: list[Track], keypoints: list[BlobKeypoint],
              cfg: TrackerConfig) -> Assignment:
    """Greedy nearest-pair matching within the distance gate.

    Candidate pairs are taken in order of (distance, track id, keypoint
    index), each track and keypoint used at most once.
    """
    candidates = []
    for track in tracks:
        tx, ty = track.position
        for k, kp in enumerate(keypoints):
            d = math.hypot(kp.centroid[0] - tx, kp.centroid[1] - ty)
            if d <= cfg.max_match_dist:
                candidates.append((d, track.id, k))
    candidates.sort()

    by_id = {t.id: t for t in tracks}
    used_tracks: set[int] = set()
    used_keypoints: set[int] = set()
    matches = []
    for d, tid, k in candidates:
        if tid in used_tracks or k in used_keypoints:
            continue
        used_tracks.add(tid)
        used_keypoints.add(k)
        matches.append((by_id[tid], k))
    unmatched_tracks = [t for t in tracks if t.id not in used_tracks]
    unmatched_keypoints = [k for k in range(len(keypoints)) if k not in used_keypoints]
    return Assignment(matches, unmatched_tracks, unmatched_keypoints)


class Tracker:
    """Owns the live track list for one stream; call step() once per frame."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(self, keypoints: list[BlobKeypoint]) -> tuple[list[int], list[int]]:
        """Advance one frame: match, age out, and spawn tracks.

        Returns (spawned ids, expired ids). Matched tracks move to the
        keypoint centroid; unmatched tracks age and are dropped once missed
        exceeds max_missed; unmatched keypoints start fresh tracks with ids
        that are never reused. So the tracks observed on this frame are
        those with missed 0.
        """
        assignment = associate(self.tracks, keypoints, self.cfg)
        for track, k in assignment.matches:
            track.position = keypoints[k].centroid
            track.missed = 0

        expired = []
        for track in assignment.unmatched_tracks:
            track.missed += 1
            if track.missed > self.cfg.max_missed:
                expired.append(track.id)
        if expired:
            self.tracks = [t for t in self.tracks if t.missed <= self.cfg.max_missed]

        spawned = []
        for k in assignment.unmatched_keypoints:
            track = Track(self._next_id, keypoints[k].centroid)
            self._next_id += 1
            self.tracks.append(track)
            spawned.append(track.id)
        return spawned, expired
