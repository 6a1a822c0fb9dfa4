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
    origin_zone: Zone | None = None


def associate(tracks: list[Track], keypoints: list[BlobKeypoint],
              cfg: TrackerConfig) -> list[tuple[Track, int]]:
    """Greedy nearest-pair matching within the distance gate: the (track,
    keypoint index) pairs in the order they were taken.

    Candidate pairs are taken in order of (distance, track id, keypoint
    index), each track and keypoint used at most once.
    """
    candidates = []
    for i, track in enumerate(tracks):
        tx, ty = track.position
        for k, kp in enumerate(keypoints):
            d = math.hypot(kp.centroid[0] - tx, kp.centroid[1] - ty)
            if d <= cfg.max_match_dist:
                candidates.append((d, track.id, k, i))
    candidates.sort()

    used_tracks: set[int] = set()
    used_keypoints: set[int] = set()
    matches = []
    for _, _, k, i in candidates:
        if i not in used_tracks and k not in used_keypoints:
            used_tracks.add(i)
            used_keypoints.add(k)
            matches.append((tracks[i], k))
    return matches


class Tracker:
    """Owns the live track list for one stream; call step() once per frame."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(self, keypoints: list[BlobKeypoint]) -> tuple[list[int], list[int]]:
        """Advance one frame and return (spawned ids, expired ids).

        Every track ages by one frame, and a matched track moves to its
        keypoint's centroid with missed 0. Tracks whose missed exceeds
        max_missed are dropped, and each unmatched keypoint starts a track
        with an id that is never reused. So the tracks observed on this
        frame are those with missed 0.
        """
        matches = associate(self.tracks, keypoints, self.cfg)
        for track in self.tracks:
            track.missed += 1
        for track, k in matches:
            track.position = keypoints[k].centroid
            track.missed = 0
        expired = [t.id for t in self.tracks if t.missed > self.cfg.max_missed]
        self.tracks = [t for t in self.tracks if t.missed <= self.cfg.max_missed]

        matched = {k for _, k in matches}
        born = [kp for k, kp in enumerate(keypoints) if k not in matched]
        spawned = list(range(self._next_id, self._next_id + len(born)))
        self.tracks += [Track(tid, kp.centroid) for tid, kp in zip(spawned, born)]
        self._next_id += len(born)
        return spawned, expired
