"""Tests of the benchmark harness, on shortened versions of its workloads.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench

hc, workloads = bench._import_package()
import tracing  # noqa: E402  (needs the package path set up above)

SMOKE_TIMED = 100   # timed frames per smoke pass; every workload crosses in it


def test_end_to_end_metrics_emitted():
    result, details = bench.benchmark("sparse", 2, seconds=0, trace=False,
                                      timed=SMOKE_TIMED)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == details["passes"] >= bench.MIN_WORKERS
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert len(details["digests"]) == 1
    assert details["setup_samples"] == bench.SETUP_PROBES
    assert {"nproc", "cpu", "python", "numpy", "thread_env", "commit"} <= set(details["host"])


@pytest.mark.parametrize("name", ["sparse", "crowd", "noise"])
def test_per_layer_metrics_emitted(name):
    result, details = bench.benchmark(name, 2, seconds=0, trace=True, timed=SMOKE_TIMED)
    assert result["correct"] and result["failed"] == 0, details["errors"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    # the traced pass reproduced the untraced counts and report bytes
    assert sum(details["truth"].values()) > 0
    assert len(details["digests"]) == 1
    expected_na = ["background.open_ms", "background.open_kept_frac"] if name == "noise" else []
    assert details["na"] == expected_na
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["blobs.keypoints"] > 0 and values["counting.events"] > 0
    assert values["frame_io.bytes"] == 640 * 480 + (0 if name == "noise" else len(b"P5\n640 480\n255\n"))


def test_tracer_restores_bindings():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            during = tracing.originals()
            raise RuntimeError("leave the block early")
    assert all(during[name] is not before[name] for name in before)
    assert tracing.originals() == before


def _small_scene():
    actors = [hc.ActorSpec(radius=6, start=(40.0, 10.0), velocity=(0.0, 3.0),
                           spawn_frame=5, despawn_frame=45, intensity=220),
              hc.ActorSpec(radius=6, start=(120.0, 110.0), velocity=(0.0, -3.0),
                           spawn_frame=8, despawn_frame=48, intensity=220)]
    return hc.SceneSpec(160, 120, 60, noise_amplitude=5, seed=4, actors=actors)


def _count(frames, tracer=None):
    config = hc.PipelineConfig(lines=hc.LinePair(50, 70), warmup=3,
                               blob=hc.BlobFilterParams(min_area=40))
    pipeline = hc.CountingPipeline(config)
    for frame in (tracer.frames(iter(frames)) if tracer else frames):
        pipeline.process_frame(frame)
    return pipeline.report().to_json()


def test_traced_counts_equal_untraced_and_spans_nest():
    frames = list(hc.render_scene(_small_scene()))
    untraced = _count(frames)
    with tracing.Tracer() as tracer:
        traced = _count(frames, tracer)
    assert traced == untraced and '"total": 2' in traced

    names = [span[0] for span in tracer.spans]
    parent_of = {}
    for name, start, end, parent, frame in tracer.spans:
        assert start <= end
        parent_of.setdefault(name, set()).add(names[parent] if parent >= 0 else None)
    assert parent_of[tracing.READ] == {None}
    assert parent_of["pipeline.process_frame"] == {None}
    assert parent_of["blobs.label_components"] == {"blobs.detect_blobs"}
    assert parent_of["blobs.measure"] == {"blobs.detect_blobs"}
    for name in ("background.update", "background.subtract", "background.morph_open",
                 "blobs.detect_blobs", "tracking.step", "counting.advance"):
        assert parent_of[name] == {"pipeline.process_frame"}

    metrics, na = tracing.summarize(tracer.spans, tracer.counts, 3, 160 * 120)
    assert na == []
    assert metrics["counting.events"] == 2
    assert 0 < metrics["background.open_kept_frac"] <= 1


def test_workloads_follow_the_seed():
    for name in ("sparse", "crowd", "noise"):
        first = workloads.build(name, 5).scene.to_dict()
        assert workloads.build(name, 5).scene.to_dict() == first
        assert workloads.build(name, 6).scene.to_dict() != first


def test_crowd_keeps_twelve_heads_in_view():
    scene = workloads.build("crowd", 3).scene
    for frame in range(1, scene.frames):
        assert sum(actor.alive_at(frame) for actor in scene.actors) == 12


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.HERE.name}/bench.py", "--workload",
                           "sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{bench.HERE.name}/bench.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
