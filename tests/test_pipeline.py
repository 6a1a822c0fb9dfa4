import dataclasses
import hashlib
import math

import numpy as np
import pytest

from headcount import (ActorSpec, BlobFilterParams, CountingPipeline, Direction,
                       LinePair, PipelineConfig, SceneSpec, Tracker, TrackerConfig,
                       advance, apply_event, detect_blobs, ground_truth_events,
                       morph_open, render_frame, render_scene, run)
from headcount.background import DEFAULT_ALPHA, BackgroundModel
from headcount.counting import Counters, CrossEvent
from headcount.errors import ConfigError, EmptySequence, OrderError, ShapeError

from conftest import uniform_frame
from oracles import background_step_reference

LINES = LinePair(60, 100)


def crossing_scene(n_down=1, n_up=0, frames=120, noise=4, width=240, height=160):
    actors = []
    lanes = [40.0 + 80.0 * i for i in range(3)]
    for i in range(n_down):
        actors.append(ActorSpec(radius=8, start=(lanes[i % 3], 14.0),
                                velocity=(0.0, 4.0), spawn_frame=20 + 35 * (i // 3),
                                despawn_frame=20 + 35 * (i // 3) + 34, intensity=220))
    for i in range(n_up):
        actors.append(ActorSpec(radius=8, start=(lanes[(n_down + i) % 3], 146.0),
                                velocity=(0.0, -4.0), spawn_frame=20 + 35 * ((n_down + i) // 3),
                                despawn_frame=20 + 35 * ((n_down + i) // 3) + 34,
                                intensity=220))
    return SceneSpec(width=width, height=height, frames=frames,
                     background_intensity=50, noise_amplitude=noise, seed=13,
                     actors=actors)


def config(**overrides):
    base = dict(lines=LINES, warmup=15)
    base.update(overrides)
    return PipelineConfig(**base)


def test_warmup_produces_no_events_or_keypoints():
    # an actor is visible during warmup; only the background learns about it
    scene = crossing_scene(frames=10)
    scene.actors = [ActorSpec(radius=8, start=(120.0, 80.0), velocity=(0.0, 0.0),
                              spawn_frame=2, despawn_frame=None, intensity=220)]
    pipeline = CountingPipeline(config())
    for frame in render_scene(scene):
        assert pipeline.process_frame(frame) == []
    assert pipeline.events == []
    assert pipeline.counters.total_count == 0


def test_single_crosser_counts_one_in():
    scene = crossing_scene(n_down=1)
    truth, _ = ground_truth_events(scene, LINES)
    report = run(render_scene(scene), config(), truth)
    assert (report.counters.in_count, report.counters.out_count) == (1, 0)
    assert report.accuracies()["in_accuracy"] == 100.0
    assert len(report.events) == 1
    assert report.events[0].direction is Direction.IN


def test_invert_direction_flips_labels():
    scene = crossing_scene(n_down=1)
    report = run(render_scene(scene), config(invert_direction=True))
    assert (report.counters.in_count, report.counters.out_count) == (0, 1)
    assert report.events[0].direction is Direction.OUT


def test_pipeline_equals_manual_stage_composition():
    scene = crossing_scene(n_down=2, n_up=1, frames=140)
    cfg = config()
    report = run(render_scene(scene), cfg)

    # the replica runs beside a pipeline, which returns each frame's keypoints
    pipeline = CountingPipeline(cfg)
    model = None
    tracker = Tracker(cfg.tracker)
    counters = Counters()
    events = []
    for frame in render_scene(scene):
        returned = pipeline.process_frame(frame)
        # frame 0 seeds the estimate; each later frame steps it once, by
        # update during warmup and by subtract, which masks it first, after
        if frame.index == 0:
            model = BackgroundModel(frame, cfg.alpha, cfg.threshold)
        if frame.index < cfg.warmup:
            if frame.index > 0:
                model.update(frame)
            assert returned == []
            continue
        mask = model.subtract(frame)
        assert np.array_equal(pipeline._model.estimate, model.estimate)
        mask = morph_open(mask, cfg.morph_radius)
        keypoints = detect_blobs(mask, cfg.blob, cfg.connectivity)
        assert returned == keypoints
        tracker.step(keypoints)
        for track in tracker.tracks:
            if track.missed:
                continue
            event = advance(track, cfg.lines, frame.index)
            if event is not None:
                apply_event(counters, event)
                events.append(event)

    assert counters == report.counters == pipeline.counters
    assert events == report.events == pipeline.events


@pytest.mark.parametrize("warmup", [0, 1, 30])
def test_each_frame_steps_the_estimate_once(warmup):
    # after N frames the estimate is frame 0 stepped by frames 1 .. N-1, each
    # once, on either side of the end of warmup
    scene = crossing_scene(n_down=1, n_up=1, frames=60)
    pipeline = CountingPipeline(config(warmup=warmup))
    estimate = None
    for frame in render_scene(scene):
        pipeline.process_frame(frame)
        if estimate is None:
            estimate = frame.pixels.astype(np.float32)
        else:
            estimate = background_step_reference(estimate, frame.pixels, DEFAULT_ALPHA)
        assert np.array_equal(pipeline._model.estimate, estimate), frame.index


@pytest.mark.parametrize("gap", [0, 5])
def test_track_counts_through_an_occlusion_of_at_most_max_missed_frames(gap):
    # one head walks down; frames 60 .. 60+gap-1 show none. The track is
    # unobserved there (missed > 0) and is not fed to advance; it matches the
    # head again within max_missed (5) frames and scores when it reaches zone B
    scene = SceneSpec(width=320, height=240, frames=100, background_intensity=50,
                      actors=[ActorSpec(radius=10, start=(160.0, 20.0),
                                        velocity=(0.0, 4.0), spawn_frame=40,
                                        despawn_frame=95, intensity=220)])
    hidden = dataclasses.replace(scene, actors=[])
    frames = (render_frame(hidden if 60 <= i < 60 + gap else scene, i)
              for i in range(scene.frames))
    report = run(frames, PipelineConfig(lines=LinePair(90, 130)))
    assert report.counters == Counters(in_count=1, out_count=0)
    assert report.events == [CrossEvent(68, 0, Direction.IN)]


def test_run_is_deterministic():
    scene = crossing_scene(n_down=2, n_up=2, frames=160, noise=5)
    first = run(render_scene(scene), config()).to_json()
    second = run(render_scene(scene), config()).to_json()
    assert first == second


def test_counters_monotone_every_frame():
    scene = crossing_scene(n_down=2, n_up=2, frames=160, noise=5)
    pipeline = CountingPipeline(config())
    previous = (0, 0, 0)
    for frame in render_scene(scene):
        pipeline.process_frame(frame)
        c = pipeline.counters
        state = (c.in_count, c.out_count, c.total_count)
        assert c.total_count == c.in_count + c.out_count
        assert all(now >= before for now, before in zip(state, previous))
        previous = state


def test_events_are_frame_ordered():
    scene = crossing_scene(n_down=3, n_up=3, frames=220, noise=5)
    report = run(render_scene(scene), config())
    frames = [e.frame for e in report.events]
    assert frames == sorted(frames)


def test_separation_violations_degrade_gracefully():
    # close pair moving together: tracker separation assumption broken on purpose
    scene = crossing_scene(n_down=2, n_up=0, frames=120)
    scene.actors.append(ActorSpec(radius=8, start=(scene.actors[0].start[0] + 22.0, 14.0),
                                  velocity=(0.0, 4.0), spawn_frame=20,
                                  despawn_frame=54, intensity=220))
    truth, _ = ground_truth_events(scene, LINES)
    report = run(render_scene(scene), config(), truth)
    assert report.counters.total_count == report.counters.in_count + report.counters.out_count
    assert "tc_accuracy" in report.accuracies()  # report still builds


def test_heavy_bidirectional_load_with_violations():
    # 20 down / 28 up where 8 of the up-crossers run in pairs 24 px apart,
    # well inside the matching gate; the run must stay sane, whatever it counts
    actors = []
    lanes = [40.0, 120.0, 200.0, 280.0]
    spawn, down_left, up_left = 35, 20, 20
    while down_left or up_left:
        for lane in lanes:
            if down_left:
                actors.append(ActorSpec(radius=8, start=(lane, 16.0),
                                        velocity=(0.0, 6.0), spawn_frame=spawn,
                                        despawn_frame=spawn + 35, intensity=220))
                down_left -= 1
            elif up_left:
                actors.append(ActorSpec(radius=8, start=(lane, 224.0),
                                        velocity=(0.0, -6.0), spawn_frame=spawn,
                                        despawn_frame=spawn + 35, intensity=220))
                up_left -= 1
        spawn += 45
    for pair in range(4):
        x = 60.0 + 70.0 * pair
        for dx in (0.0, 24.0):
            actors.append(ActorSpec(radius=8, start=(x + dx, 224.0),
                                    velocity=(0.0, -6.0), spawn_frame=spawn,
                                    despawn_frame=spawn + 35, intensity=220))
    scene = SceneSpec(width=320, height=240, frames=spawn + 80,
                      background_intensity=50, noise_amplitude=5, seed=23,
                      actors=actors)
    lines = LinePair(100, 140)
    truth, _ = ground_truth_events(scene, lines)
    assert (truth.true_in, truth.true_out, truth.true_total) == (20, 28, 48)
    report = run(render_scene(scene), PipelineConfig(lines=lines), truth)
    c = report.counters
    assert c.total_count == c.in_count + c.out_count
    assert 0 <= c.in_count and 0 <= c.out_count
    assert "tc_accuracy" in report.accuracies()
    assert [e.frame for e in report.events] == sorted(e.frame for e in report.events)


def test_geometry_change_mid_stream():
    pipeline = CountingPipeline(config(warmup=0))
    pipeline.process_frame(uniform_frame(240, 160, 50, index=0))
    with pytest.raises(ShapeError):
        pipeline.process_frame(uniform_frame(160, 240, 50, index=1))


def test_frames_must_arrive_in_order():
    pipeline = CountingPipeline(config(warmup=0))
    pipeline.process_frame(uniform_frame(240, 160, 50, index=0))
    with pytest.raises(OrderError):
        pipeline.process_frame(uniform_frame(240, 160, 50, index=0))


def test_minimum_frame_size_enforced():
    pipeline = CountingPipeline(PipelineConfig(lines=LinePair(2, 4)))
    with pytest.raises(ConfigError):
        pipeline.process_frame(uniform_frame(6, 6, 0))


def test_lines_must_fit_frame():
    pipeline = CountingPipeline(PipelineConfig(lines=LinePair(60, 200)))
    with pytest.raises(ConfigError):
        pipeline.process_frame(uniform_frame(160, 120, 0))


def test_out_line_must_leave_zone_b_a_row():
    # on the last row the OUT line leaves zone B no row, so nothing could count
    with pytest.raises(ConfigError):
        CountingPipeline(PipelineConfig(lines=LinePair(40, 119))).process_frame(
            uniform_frame(160, 120, 0))
    CountingPipeline(PipelineConfig(lines=LinePair(40, 118))).process_frame(
        uniform_frame(160, 120, 0))


def test_empty_sequence_rejected():
    with pytest.raises(EmptySequence):
        run(iter([]), config())


def test_run_static_scene_counts_nothing():
    frames = (uniform_frame(64, 64, 80, index=i) for i in range(40))
    report = run(frames, PipelineConfig(lines=LinePair(20, 40), warmup=10))
    assert report.counters == Counters()
    assert report.events == []


def test_morph_radius_zero_skips_cleanup():
    scene = crossing_scene(n_down=1)
    report = run(render_scene(scene), config(morph_radius=0))
    assert report.counters.in_count == 1


def test_params_snapshot_reflects_config():
    cfg = config(alpha=0.05, threshold=30.0, invert_direction=True,
                 blob=BlobFilterParams(min_area=50),
                 tracker=TrackerConfig(max_match_dist=40.0, max_missed=3))
    params = cfg.to_params_dict()
    assert params["alpha"] == 0.05
    assert params["threshold"] == 30.0
    assert params["invert_direction"] is True
    assert params["min_area"] == 50
    assert params["max_match_dist"] == 40.0
    assert params["max_missed"] == 3
    assert params["lines"] == [60, 100]


@pytest.mark.parametrize("cfg", [
    PipelineConfig(lines=LINES),
    PipelineConfig(lines=LinePair(1, 2), alpha=0.05, threshold=30.0, warmup=0,
                   morph_radius=0, connectivity=4, invert_direction=True,
                   blob=BlobFilterParams(min_area=50, max_area=None),
                   tracker=TrackerConfig(max_match_dist=40.0, max_missed=3)),
    PipelineConfig(lines=LINES, blob=BlobFilterParams(
        min_area=5, max_area=900, min_circularity=0.1, min_convexity=0.2,
        min_inertia=0.4)),
], ids=["defaults", "top_level_and_tracker", "blob"])
def test_from_params_inverts_to_params_dict(cfg):
    params = cfg.to_params_dict()
    assert PipelineConfig.from_params(params) == cfg
    assert PipelineConfig.from_params(params).to_params_dict() == params


def test_from_params_fills_defaults():
    assert PipelineConfig.from_params({"lines": [60, 100]}) == PipelineConfig(lines=LINES)


@pytest.mark.parametrize("doc,match", [
    ({"lines": [60, 100], "alpah": 0.5}, r"unknown config keys: \['alpah'\]"),
    ({"alpha": 0.5}, "counting lines are required"),
    ({"lines": None}, "counting lines are required"),
    ({"lines": [60, 100], "min_area": None}, "min_area must be a JSON integer"),
    ({"lines": [60, 100], "max_area": 1.5}, "max_area must be a JSON integer"),
    ({"lines": [60, 100], "invert_direction": 1}, "invert_direction must be a JSON boolean"),
    ({"lines": "60,100"}, "lines must be a JSON array"),
    ({"lines": [60, 100, 140]}, "lines must hold two integers"),
    ({"lines": [60, 2**63]}, "lines must be a 64-bit integer"),
    ({"lines": [60.0, 100]}, "lines must be a JSON integer"),
    ({"lines": [100, 60]}, "must be above"),
    ([["lines", [60, 100]]], "config must be a JSON object"),
])
def test_from_params_rejects_bad_documents(doc, match):
    with pytest.raises(ConfigError, match=match):
        PipelineConfig.from_params(doc)


@pytest.mark.parametrize("name", ["alpha", "threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_background_params(name, value):
    # rejected at construction, before a frame is read
    with pytest.raises(ConfigError):
        config(**{name: value})


def golden_scene():
    # six lanes, each with a head going down and a larger or smaller one
    # coming up that merges with it on the way; sub-pixel starts vary the
    # disks' outlines, and with no noise no random stream is drawn
    actors = []
    for i in range(6):
        x = 27.0 + 53.3 * i
        actors.append(ActorSpec(radius=7 + i, start=(x, 10.0 + 0.25 * i),
                                velocity=(0.0, 4.0), spawn_frame=32 + 6 * i,
                                despawn_frame=88 + 6 * i, intensity=220))
        actors.append(ActorSpec(radius=12 - i, start=(x + 0.5, 230.0 - 0.25 * i),
                                velocity=(0.0, -3.5), spawn_frame=60 + 5 * i,
                                despawn_frame=124 + 5 * i, intensity=200))
    return SceneSpec(width=320, height=240, frames=150, background_intensity=50,
                     noise_amplitude=0, seed=0, actors=actors)


# the SHA-256 of that scene's report; change it only with a change that
# means to alter reports, and say why
GOLDEN_REPORT_SHA256 = "720810320c5a0f588f7e5d9b99ea74ca91772b61413ba661fec629d8b53d9969"


def test_golden_report_bytes():
    # pins the exact report of a fixed scene, so a refactor of a hot path
    # that changes any count, event, track id or parameter shows here
    scene = golden_scene()
    lines = LinePair(100, 140)
    truth, _ = ground_truth_events(scene, lines)
    report = run(render_scene(scene), PipelineConfig(lines=lines), truth).to_json()
    assert (truth.true_in, truth.true_out) == (6, 6)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_REPORT_SHA256
