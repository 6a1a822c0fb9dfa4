import math

import numpy as np
import pytest

from headcount import BlobKeypoint, Tracker, TrackerConfig, associate
from headcount.errors import ConfigError
from headcount.tracking import Track

from oracles import greedy_match_bruteforce, track_bruteforce


def kp(x, y):
    return BlobKeypoint(centroid=(float(x), float(y)), diameter_s=10.0)


def track_at(tid, x, y):
    return Track(id=tid, position=(float(x), float(y)))


def test_associate_within_gate():
    cfg = TrackerConfig(max_match_dist=20.0)
    matches = associate([track_at(0, 10, 10)], [kp(12, 10)], cfg)
    assert [(t.id, k) for t, k in matches] == [(0, 0)]


def test_associate_beyond_gate():
    cfg = TrackerConfig(max_match_dist=20.0)
    assert associate([track_at(0, 10, 10)], [kp(35, 10)], cfg) == []


def test_associate_prefers_globally_nearest():
    # track 0 is closest to keypoint 1; track 1 must take keypoint 0
    cfg = TrackerConfig(max_match_dist=50.0)
    tracks = [track_at(0, 0, 0), track_at(1, 10, 0)]
    keypoints = [kp(9, 0), kp(1, 0)]
    matches = associate(tracks, keypoints, cfg)
    assert [(t.id, k) for t, k in matches] == [(0, 1), (1, 0)]


def test_associate_tie_breaks_by_track_id_then_keypoint():
    cfg = TrackerConfig(max_match_dist=50.0)
    tracks = [track_at(0, 0, 0), track_at(1, 8, 0)]
    keypoints = [kp(4, 3), kp(4, -3)]  # all four distances equal (5.0)
    matches = associate(tracks, keypoints, cfg)
    assert [(t.id, k) for t, k in matches] == [(0, 0), (1, 1)]


def test_associate_matches_bruteforce_oracle(rng):
    cfg = TrackerConfig(max_match_dist=30.0)
    for _ in range(60):
        n_tracks = int(rng.integers(0, 6))
        n_kps = int(rng.integers(0, 6))
        tracks = [track_at(i, *rng.uniform(0, 100, 2)) for i in range(n_tracks)]
        keypoints = [kp(*rng.uniform(0, 100, 2)) for _ in range(n_kps)]
        got = [(t.id, k) for t, k in associate(tracks, keypoints, cfg)]
        expected = greedy_match_bruteforce(
            [(t.id, t.position) for t in tracks],
            [k.centroid for k in keypoints], 30.0)
        assert got == expected


def test_associate_injective(rng):
    cfg = TrackerConfig(max_match_dist=40.0)
    tracks = [track_at(i, *rng.uniform(0, 50, 2)) for i in range(5)]
    keypoints = [kp(*rng.uniform(0, 50, 2)) for _ in range(7)]
    matches = associate(tracks, keypoints, cfg)
    tids = [t.id for t, _ in matches]
    kids = [k for _, k in matches]
    assert len(set(tids)) == len(tids)
    assert len(set(kids)) == len(kids)
    assert len(matches) <= min(len(tracks), len(keypoints))


@pytest.mark.parametrize("max_missed", [0, 2])
def test_step_matches_bruteforce_tracker_oracle(rng, max_missed):
    # integer-grid keypoints within a small field make equal distances common,
    # so the (distance, track id, keypoint index) tie-break decides matches
    for _ in range(50):
        frames = [[(float(x), float(y)) for x, y in rng.integers(0, 10, (n, 2))]
                  for n in rng.integers(0, 7, 30)]
        tracker = Tracker(TrackerConfig(max_match_dist=3.0, max_missed=max_missed))
        for points, (spawned, expired, live) in zip(
                frames, track_bruteforce(frames, 3.0, max_missed)):
            assert tracker.step([kp(x, y) for x, y in points]) == (spawned, expired)
            assert [(t.id, t.position, t.missed) for t in tracker.tracks] == live


def test_step_spawns_for_unmatched_keypoints():
    tracker = Tracker(TrackerConfig())
    spawned, expired = tracker.step([kp(10, 10), kp(200, 10)])
    assert spawned == [0, 1]
    assert expired == []
    assert [t.id for t in tracker.tracks] == [0, 1]


def test_step_expires_immediately_at_zero_max_missed():
    tracker = Tracker(TrackerConfig(max_missed=0))
    tracker.step([kp(10, 10)])
    spawned, expired = tracker.step([])
    assert spawned == []
    assert expired == [0]
    assert tracker.tracks == []


def test_step_keeps_track_at_its_miss_budget_while_another_expires():
    tracker = Tracker(TrackerConfig(max_match_dist=20.0, max_missed=2))
    tracker.step([kp(10, 10)])
    tracker.step([kp(100, 10)])    # track 0 missed 1, track 1 spawned
    tracker.step([])               # missed 2 and 1
    spawned, expired = tracker.step([])
    assert expired == [0]
    assert [(t.id, t.missed) for t in tracker.tracks] == [(1, 2)]


def test_step_keeps_track_through_short_gap():
    tracker = Tracker(TrackerConfig(max_missed=2))
    tracker.step([kp(10, 10)])
    tracker.step([])
    tracker.step([])
    spawned, expired = tracker.step([kp(12, 10)])
    assert spawned == [] and expired == []
    assert len(tracker.tracks) == 1
    assert tracker.tracks[0].missed == 0


def test_step_single_moving_object_single_track():
    tracker = Tracker(TrackerConfig(max_match_dist=50.0))
    observed = []
    for i in range(20):
        tracker.step([kp(40, 10 + 5 * i)])
        observed += [(t.id, t.missed, t.position) for t in tracker.tracks]
    assert len(tracker.tracks) == 1
    assert observed == [(0, 0, (40.0, 10.0 + 5 * i)) for i in range(20)]


def test_ids_never_reused():
    tracker = Tracker(TrackerConfig(max_missed=0))
    seen = []
    for cycle in range(4):
        spawned, _ = tracker.step([kp(10 + cycle, 10)])
        seen.extend(spawned)
        tracker.step([])  # starve so the track expires
    assert seen == [0, 1, 2, 3]


def test_constant_cardinality_keeps_identities(rng):
    # three objects, always present, far apart, small motion: 3 tracks total
    tracker = Tracker(TrackerConfig(max_match_dist=50.0))
    centers = np.array([[50.0, 50.0], [200.0, 50.0], [350.0, 50.0]])
    all_ids = set()
    for i in range(40):
        centers += rng.uniform(-3, 3, centers.shape)
        tracker.step([kp(x, y) for x, y in centers])
        all_ids.update(t.id for t in tracker.tracks)
    assert len(tracker.tracks) == 3
    assert all_ids == {0, 1, 2}


def test_config_validation():
    with pytest.raises(ConfigError):
        TrackerConfig(max_match_dist=0.0)
    with pytest.raises(ConfigError):
        TrackerConfig(max_missed=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_match_distance(value):
    with pytest.raises(ConfigError):
        TrackerConfig(max_match_dist=value)
