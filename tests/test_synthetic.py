from dataclasses import replace

import numpy as np
import pytest

from headcount import (ActorSpec, LinePair, PipelineConfig, SceneSpec,
                       ground_truth_events, render_frame, render_scene, run)
from headcount.errors import ConfigError

from oracles import scan_zone_events

LINES = LinePair(40, 80)


def crosser(x, down=True, spawn=0, radius=8, speed=4.0, height=120):
    if down:
        return ActorSpec(radius=radius, start=(x, 12.0), velocity=(0.0, speed),
                         spawn_frame=spawn, despawn_frame=spawn + 25, intensity=220)
    return ActorSpec(radius=radius, start=(x, float(height - 12)),
                     velocity=(0.0, -speed), spawn_frame=spawn,
                     despawn_frame=spawn + 25, intensity=220)


def scene(actors, frames=40, noise=0, width=160, height=120):
    return SceneSpec(width=width, height=height, frames=frames,
                     background_intensity=50, noise_amplitude=noise, seed=9,
                     actors=actors)


def test_rendering_is_deterministic():
    spec = scene([crosser(60.0)], frames=20, noise=6)
    first = [f.pixels.tobytes() for f in render_scene(spec)]
    second = [f.pixels.tobytes() for f in render_scene(spec)]
    assert first == second


def test_no_actors_no_noise_constant_background():
    spec = scene([], frames=5)
    for frame in render_scene(spec):
        assert (frame.pixels == 50).all()


def test_noise_is_bounded():
    spec = scene([], frames=5, noise=6)
    for frame in render_scene(spec):
        diff = frame.pixels.astype(int) - 50
        assert diff.min() >= -6
        assert diff.max() <= 6
        assert diff.any()  # noise actually applied


def test_disk_rendered_at_analytic_position():
    actor = ActorSpec(radius=5, start=(30.0, 20.0), velocity=(2.0, 3.0),
                      spawn_frame=4, despawn_frame=20, intensity=200)
    spec = scene([actor], frames=20)
    frame = render_frame(spec, 10)
    cx, cy = actor.position_at(10)
    assert (cx, cy) == (42.0, 38.0)
    assert frame.pixels[int(cy), int(cx)] == 200
    assert frame.pixels[int(cy) + 7, int(cx)] == 50  # just outside the disk
    # not yet spawned: background only
    assert (render_frame(spec, 3).pixels == 50).all()


def test_zero_frames_rejected():
    with pytest.raises(ConfigError):
        list(render_scene(scene([], frames=0)))


@pytest.mark.parametrize("field", ["width", "height", "frames"])
@pytest.mark.parametrize("value", [0, -3])
def test_scene_spec_rejects_non_positive_geometry(field, value):
    doc = dict(scene([]).to_dict(), **{field: value})
    with pytest.raises(ConfigError):
        SceneSpec.from_dict(doc)


@pytest.mark.parametrize("field", ["width", "height", "frames", "seed",
                                   "background_intensity", "noise_amplitude"])
@pytest.mark.parametrize("value", [32.5, True, "40", None])
def test_scene_spec_rejects_non_integer_fields(field, value):
    doc = dict(scene([]).to_dict(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        SceneSpec.from_dict(doc)


@pytest.mark.parametrize("field", ["radius", "spawn_frame", "despawn_frame", "intensity"])
@pytest.mark.parametrize("value", [10.5, True, "10", None])
def test_scene_spec_rejects_non_integer_actor_fields(field, value):
    doc = scene([crosser(60.0)]).to_dict()
    doc["actors"][0][field] = value
    if field == "despawn_frame" and value is None:
        # an actor that lives to the end of the scene
        assert SceneSpec.from_dict(doc).actors[0].despawn_frame is None
        return
    with pytest.raises(ConfigError, match=field):
        SceneSpec.from_dict(doc)


def test_actor_validation():
    with pytest.raises(ConfigError):
        ActorSpec(radius=1, start=(0, 0), velocity=(0, 0))
    with pytest.raises(ConfigError):
        ActorSpec(radius=5, start=(0, 0), velocity=(0, 0), intensity=300)
    with pytest.raises(ConfigError):
        ActorSpec(radius=5, start=(0, 0), velocity=(0, 0),
                  spawn_frame=10, despawn_frame=10)


def test_ground_truth_single_down_crosser():
    truth, events = ground_truth_events(scene([crosser(60.0)]), LINES)
    assert (truth.true_in, truth.true_out, truth.true_total) == (1, 0, 1)
    assert len(events) == 1
    assert events[0].direction.value == "IN"


def test_ground_truth_eight_down_eight_up():
    actors = []
    for i in range(8):
        actors.append(crosser(20.0 + 15 * i, down=True, spawn=5 * i))
        actors.append(crosser(25.0 + 15 * i, down=False, spawn=5 * i + 2))
    truth, _ = ground_truth_events(scene(actors, frames=100), LINES)
    assert (truth.true_in, truth.true_out, truth.true_total) == (8, 8, 16)


def test_ground_truth_reversal_between_lines_counts_nothing():
    # a person reaching the middle zone and turning back, modeled as two
    # constant-velocity segments: B -> M, then M -> B
    inbound = ActorSpec(radius=6, start=(50.0, 100.0), velocity=(0.0, -3.0),
                        spawn_frame=0, despawn_frame=13, intensity=220)
    outbound = ActorSpec(radius=6, start=(50.0, 64.0), velocity=(0.0, 3.0),
                         spawn_frame=13, despawn_frame=26, intensity=220)
    truth, events = ground_truth_events(scene([inbound, outbound]), LINES)
    assert (truth.true_in, truth.true_out, truth.true_total) == (0, 0, 0)
    assert events == []


def test_ground_truth_counts_truncated_at_scene_end():
    # crosses the first line but the scene ends before it reaches the second
    actor = ActorSpec(radius=6, start=(50.0, 12.0), velocity=(0.0, 4.0),
                      spawn_frame=0, despawn_frame=100, intensity=220)
    truth, _ = ground_truth_events(scene([actor], frames=12), LINES)
    assert truth.true_total == 0


def zone_string(actor, lines, first, last):
    return "".join("A" if y < lines.line_in_y else "B" if y > lines.line_out_y else "M"
                   for _, y in map(actor.position_at, range(first, last)))


def test_ground_truth_agrees_with_counting_semantics(rng):
    # truth applies counting.advance; the oracle scans each actor's zone
    # string, built here from its exact centers over the frames it lives, by
    # substring search. Actors start on a line, between the lines or anywhere,
    # some spawn at or after the scene end, and three actors' events must
    # come out merged in frame order, with each event's track_id the actor's
    # index. A mirrored pair crosses on the same frames both ways, so ties
    # must come out in index order, not direction order
    for trial in range(200):
        frames = int(rng.integers(2, 60))
        actors, expected = [], []
        for k in range(3):
            y0 = [40.0, 60.0, 80.0][k] if trial % 4 == 0 else float(rng.uniform(0, 120))
            spawn = int(rng.integers(0, frames + 3))
            despawn = None if rng.random() < 0.3 else spawn + int(rng.integers(1, 40))
            actor = ActorSpec(radius=5, start=(30.0, y0),
                              velocity=(0.0, float(rng.uniform(-20, 20))),
                              spawn_frame=spawn, despawn_frame=despawn, intensity=220)
            if trial % 4 == 1 and k == 1:
                # actor 0 mirrored about row 60, midway between the lines:
                # it crosses on actor 0's frames, the other way
                actor = replace(actors[0], start=(90.0, 120.0 - actors[0].start[1]),
                                velocity=(0.0, -actors[0].velocity[1]))
            actors.append(actor)
            spawn, despawn = actor.spawn_frame, actor.despawn_frame
            last = frames if despawn is None else min(despawn, frames)
            zones = zone_string(actor, LINES, spawn, last)
            expected += [(spawn + i, k, d) for i, d in scan_zone_events(zones)]
        truth, events = ground_truth_events(scene(actors, frames=frames), LINES)
        assert [(e.frame, e.track_id, e.direction.value) for e in events] == sorted(expected)
        assert truth.true_in == sum(1 for _, _, d in expected if d == "IN")
        assert truth.true_out == sum(1 for _, _, d in expected if d == "OUT")


def test_static_disk_absorbed_into_background():
    static = ActorSpec(radius=8, start=(80.0, 60.0), velocity=(0.0, 0.0),
                       spawn_frame=0, despawn_frame=None, intensity=220)
    spec = scene([static], frames=60)
    frames = list(render_scene(spec))
    assert all(np.array_equal(f.pixels, frames[0].pixels) for f in frames[1:])
    config = PipelineConfig(lines=LINES, warmup=10)
    report = run(iter(frames), config)
    assert report.counters.total_count == 0
    assert report.events == []


def test_scene_spec_json_round_trip():
    spec = scene([crosser(60.0), crosser(90.0, down=False, spawn=7)],
                 frames=50, noise=4)
    again = SceneSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    original = [f.pixels.tobytes() for f in render_scene(spec)]
    restored = [f.pixels.tobytes() for f in render_scene(again)]
    assert original == restored


def test_scene_spec_invalid_document():
    with pytest.raises(ConfigError):
        SceneSpec.from_dict({"width": 64})
