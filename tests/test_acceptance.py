"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success)."""

import contextlib
import json
import math
import time

import numpy as np

from headcount import (ActorSpec, BinaryMask, CountingPipeline, LinePair,
                       PipelineConfig, SceneSpec, accuracy_pct, advance,
                       ground_truth_events, inertia_ratio, label_components,
                       measure, render_scene, run)
from headcount.background import BackgroundModel
from headcount.blobs import circularity, convexity
from headcount.cli import main
from headcount.tracking import Track

from conftest import uniform_frame
from oracles import disk_mask, flood_fill_labels, label_image, scan_zone_events

LINES = LinePair(100, 140)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}", flush=True)


def head_actor(x, spawn, down=True, radius=9, height=240, speed=4.0):
    if down:
        start, velocity = (x, 20.0), (0.0, speed)
    else:
        start, velocity = (x, float(height - 20)), (0.0, -speed)
    return ActorSpec(radius=radius, start=start, velocity=velocity,
                     spawn_frame=spawn, despawn_frame=spawn + 51, intensity=220)


def row_one_scene():
    """8 down-crossers and 8 up-crossers in time-separated waves of <= 3,
    lanes 110 px apart (>= twice the matching gate)."""
    plan = [("D", "D", "D"), ("U", "U", "U"), ("D", "D", "D"),
            ("U", "U", "U"), ("D", "D", "U"), ("U",)]
    lanes = (50.0, 160.0, 270.0)
    actors = []
    for wave, directions in enumerate(plan):
        for lane, d in zip(lanes, directions):
            actors.append(head_actor(lane, spawn=40 + 60 * wave, down=(d == "D")))
    return SceneSpec(width=320, height=240, frames=600, background_intensity=50,
                     noise_amplitude=5, seed=11, actors=actors)


def test_criterion_01_accuracy_formula_reproduction():
    with criterion(1, "accuracy formulas reproduce the published count table"):
        start = time.perf_counter()
        assert accuracy_pct(8, 8) == 100.0
        assert accuracy_pct(8, 8) == 100.0
        assert accuracy_pct(16, 16) == 100.0
        assert accuracy_pct(9, 9) == 100.0
        assert accuracy_pct(12, 12) == 100.0
        assert accuracy_pct(21, 21) == 100.0
        total_row3 = accuracy_pct(45, 48)
        assert total_row3 == 93.75          # exact before display rounding
        assert round(total_row3) == 94      # displayed value
        assert math.floor(total_row3) == 93 # quoted overall figure bracket
        assert 93 <= total_row3 <= 94
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_end_to_end_sixteen_crossers():
    with criterion(2, "synthetic 8-down/8-up scene counts 8/8/16 at 100.00%"):
        scene = row_one_scene()
        truth, _ = ground_truth_events(scene, LINES)
        assert (truth.true_in, truth.true_out, truth.true_total) == (8, 8, 16)
        start = time.perf_counter()
        report = run(render_scene(scene), PipelineConfig(lines=LINES), truth)
        elapsed = time.perf_counter() - start
        assert report.counters.in_count == 8
        assert report.counters.out_count == 8
        assert report.counters.total_count == 16
        assert {key: round(pct, 2) for key, pct in report.accuracies().items()} == {
            "in_accuracy": 100.00, "out_accuracy": 100.00, "tc_accuracy": 100.00}
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_simultaneous_crossing():
    with criterion(3, "two simultaneous crossers 150 px apart give 2 events"):
        actors = [
            ActorSpec(radius=9, start=(85.0, 20.0), velocity=(0.0, 4.0),
                      spawn_frame=40, despawn_frame=91, intensity=220),
            ActorSpec(radius=9, start=(235.0, 220.0), velocity=(0.0, -4.0),
                      spawn_frame=40, despawn_frame=91, intensity=220),
        ]
        scene = SceneSpec(width=320, height=240, frames=140,
                          background_intensity=50, noise_amplitude=5, seed=3,
                          actors=actors)
        truth, expected = ground_truth_events(scene, LINES)
        assert [e.direction.value for e in expected] == ["IN", "OUT"]
        assert expected[0].frame == expected[1].frame  # same analytic frame
        report = run(render_scene(scene), PipelineConfig(lines=LINES), truth)
        assert len(report.events) == 2
        assert {e.direction.value for e in report.events} == {"IN", "OUT"}
        assert report.events[0].frame == report.events[1].frame
        assert (report.counters.in_count, report.counters.out_count) == (1, 1)


def test_criterion_04_labeling_equals_flood_fill():
    with criterion(4, "2000 labelings (1000 masks x 4/8-conn) match flood fill"):
        rng = np.random.default_rng(20250811)
        # only labeling is timed; the pure-Python oracle is not under test
        elapsed = 0.0
        for _ in range(1000):
            density = rng.uniform(0.1, 0.9)
            bits = rng.random((64, 64)) < density
            for conn in (4, 8):
                start = time.perf_counter()
                got = label_components(BinaryMask(bits), conn)
                elapsed += time.perf_counter() - start
                expected = flood_fill_labels(bits, conn)
                assert np.array_equal(label_image(got, bits.shape), expected)
                assert got.count == int(expected.max())
        assert elapsed < 10.0, f"labeling took {elapsed:.1f}s"


def test_criterion_05_shape_metric_sanity():
    with criterion(5, "disk radii 5..30: circ 1+-0.15, inertia 1+-0.1, conv >= 0.9"):
        for radius in range(5, 31):
            labels = label_components(BinaryMask(disk_mask(radius)), 8)
            m = measure(labels, [1])[0]
            assert abs(circularity(m) - 1.0) <= 0.15, f"radius {radius}"
            assert abs(inertia_ratio(m) - 1.0) <= 0.1, f"radius {radius}"
            assert convexity(m) >= 0.9, f"radius {radius}"
        bar = np.zeros((5, 24), dtype=bool)
        bar[2, 2:22] = True
        labels = label_components(BinaryMask(bar), 8)
        assert inertia_ratio(measure(labels, [1])[0]) == 0.0


def test_criterion_06_background_convergence():
    with criterion(6, "running average meets the 255*(1-a)^k bound, mask clears"):
        # model seeded from the first frame; as in the pipeline, frames 1-29
        # (warm-up) only update it, and later ones are masked against the
        # estimate before them, then update it
        def step(model, frame, k):
            if k < 30:
                model.update(frame)
                return None
            return model.subtract(frame).bits

        # constant scene
        frame = uniform_frame(32, 32, 120)
        model = BackgroundModel(frame, alpha=0.02, threshold=25.0)
        for k in range(1, 301):
            bits = step(model, frame, k)
            gap = np.abs(model.estimate - frame.pixels).max()
            assert gap <= 255.0 * 0.98 ** k
            if bits is not None:
                assert not bits.any()
        # near-worst-case start: the bound still holds from a 254-unit gap,
        # and a mask is full while the gap before its frame exceeds
        # threshold / (1 - alpha), then clears
        model = BackgroundModel(uniform_frame(32, 32, 1), alpha=0.02, threshold=25.0)
        high = uniform_frame(32, 32, 255)
        cleared = None
        for k in range(1, 301):
            before = np.abs(model.estimate - 255.0).max()
            bits = step(model, high, k)
            gap = np.abs(model.estimate - 255.0).max()
            assert gap <= 255.0 * 0.98 ** k
            if bits is not None:
                assert bits.all() if before > 25.0 / 0.98 else not bits.any()
                if cleared is None and not bits.any():
                    cleared = k
        # 254 * 0.98**(k - 1) <= 25 / 0.98 first at k = 115
        assert cleared == 115


def test_criterion_07_line_semantics_oracle():
    with criterion(7, "10000 random zone walks match the string-scan oracle"):
        rng = np.random.default_rng(77)
        lines = LinePair(100, 200)
        zone_ys = {"A": (0.0, 99.0), "M": (100.0, 150.0, 200.0), "B": (201.0, 300.0)}
        for _ in range(10_000):
            n = int(rng.integers(1, 40))
            zones = "".join(rng.choice(list("AMB"), n))
            track = Track(0, (0.0, 0.0))
            got = []
            for i, z in enumerate(zones):
                ys = zone_ys[z]
                track.position = (0.0, ys[int(rng.integers(len(ys)))])
                event = advance(track, lines, i)
                if event is not None:
                    got.append((event.frame, event.direction.value))
            assert got == scan_zone_events(zones)


def test_criterion_08_cli_determinism(tmp_path, capsys):
    with criterion(8, "two cmd_count runs emit byte-identical report JSON"):
        scene = {
            "width": 160, "height": 120, "frames": 80,
            "background_intensity": 50, "noise_amplitude": 5, "seed": 5,
            "lines": [40, 80],
            "actors": [{"radius": 8, "start": [80.0, 12.0], "velocity": [0.0, 4.0],
                        "spawn_frame": 20, "despawn_frame": 46, "intensity": 220}],
        }
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(scene))
        out_dir = tmp_path / "frames"
        assert main(["synth", "--spec", str(spec), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        args = ["count", "--input", str(out_dir), "--lines", "40,80",
                "--warmup", "15", "--truth", str(out_dir / "truth.json")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["total"] == 1


def test_criterion_09_counter_invariants_continuous():
    with criterion(9, "total == in + out and counters never decrease"):
        scene = row_one_scene()
        scene.frames = 400  # first four waves are enough for a busy run
        pipeline = CountingPipeline(PipelineConfig(lines=LINES))
        previous = (0, 0, 0)
        for frame in render_scene(scene):
            pipeline.process_frame(frame)
            c = pipeline.counters
            assert c.total_count == c.in_count + c.out_count
            now = (c.in_count, c.out_count, c.total_count)
            assert all(a >= b for a, b in zip(now, previous))
            previous = now
        assert pipeline.counters.total_count > 0


def test_criterion_10_throughput_measurement():
    with criterion(10, "640x480 throughput measured (target >= 30 fps, informational)"):
        actors = [head_actor(150.0, spawn=35, height=480, speed=8.0),
                  head_actor(470.0, spawn=35, down=False, height=480, speed=8.0)]
        scene = SceneSpec(width=640, height=480, frames=120,
                          background_intensity=50, noise_amplitude=5, seed=9,
                          actors=actors)
        frames = list(render_scene(scene))  # pre-render; time the pipeline only
        pipeline = CountingPipeline(PipelineConfig(lines=LinePair(200, 280)))
        start = time.perf_counter()
        for frame in frames:
            pipeline.process_frame(frame)
        elapsed = time.perf_counter() - start
        fps = len(frames) / elapsed
        print(f"        throughput: {fps:.1f} fps on 640x480 "
              f"({'meets' if fps >= 30 else 'below'} the 30 fps target)", flush=True)
        assert fps > 0
