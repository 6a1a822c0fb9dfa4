import json

import pytest

from headcount import load_frame
from headcount.cli import main
from headcount.pipeline import PARAMS

SCENE = {
    "width": 160,
    "height": 120,
    "frames": 90,
    "background_intensity": 50,
    "noise_amplitude": 4,
    "seed": 21,
    "lines": [40, 80],
    "actors": [
        {"radius": 8, "start": [40.0, 12.0], "velocity": [0.0, 4.0],
         "spawn_frame": 20, "despawn_frame": 46, "intensity": 220},
        {"radius": 8, "start": [120.0, 108.0], "velocity": [0.0, -4.0],
         "spawn_frame": 30, "despawn_frame": 56, "intensity": 220},
    ],
}

COUNT_FLAGS = ["--lines", "40,80", "--warmup", "15"]


def write_scene(tmp_path, scene=None):
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(json.dumps(scene or SCENE))
    return spec_path


def synth(tmp_path, out_name="frames", scene=None, extra=()):
    spec_path = write_scene(tmp_path, scene)
    out_dir = tmp_path / out_name
    code = main(["synth", "--spec", str(spec_path), "--out", str(out_dir), *extra])
    assert code == 0
    return out_dir


def run_count(capsys, *args):
    code = main(["count", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_frames_and_truth(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    frames = sorted(out_dir.glob("*.pgm"))
    assert len(frames) == 90
    assert frames[0].name == "000000.pgm"
    truth = json.loads((out_dir / "truth.json").read_text())
    assert truth == {"true_in": 1, "true_out": 1, "true_total": 2}


def test_synth_is_deterministic(tmp_path, capsys):
    first = synth(tmp_path, "a")
    second = synth(tmp_path, "b")
    capsys.readouterr()
    for pa, pb in zip(sorted(first.iterdir()), sorted(second.iterdir())):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()


def test_synth_zero_frames_is_config_error(tmp_path, capsys):
    scene = dict(SCENE, frames=0)
    spec_path = write_scene(tmp_path, scene)
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["width", "height", "frames"])
def test_synth_zero_geometry_writes_nothing(tmp_path, capsys, field):
    spec_path = write_scene(tmp_path, dict(SCENE, **{field: 0}))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["width", "height", "frames", "seed",
                                   "background_intensity", "noise_amplitude"])
@pytest.mark.parametrize("value", [32.5, True, "40"])
def test_synth_non_integer_scene_field_is_config_error(tmp_path, capsys, field, value):
    spec_path = write_scene(tmp_path, dict(SCENE, **{field: value}))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["radius", "spawn_frame", "despawn_frame", "intensity"])
@pytest.mark.parametrize("value", [20.5, True, "20"])
def test_synth_non_integer_actor_field_is_config_error(tmp_path, capsys, field, value):
    # a float spawn_frame used to end in a range() traceback, and a float
    # intensity was truncated into the frames
    actors = [dict(SCENE["actors"][0], **{field: value}), SCENE["actors"][1]]
    spec_path = write_scene(tmp_path, dict(SCENE, actors=actors))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err
    assert not (tmp_path / "x").exists()


def test_synth_scene_too_big_to_render_writes_nothing(tmp_path, capsys):
    # 4 rows of 2**62 int16 pixels exceed numpy's largest array, so it
    # refuses them without allocating; this used to end in a ValueError
    # traceback after the output directory had been made
    spec_path = write_scene(tmp_path, {"width": 2**62, "height": 4, "frames": 1})
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x"),
                 "--lines", "1,2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: the scene cannot be rendered")
    assert not (tmp_path / "x").exists()


def test_synth_requires_lines(tmp_path, capsys):
    scene = {k: v for k, v in SCENE.items() if k != "lines"}
    spec_path = write_scene(tmp_path, scene)
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("lines,extra", [([5, 1000], []), ([40, 119], []),
                                         ([40, 80], ["--lines", "40,119"])])
def test_synth_lines_outside_scene_write_nothing(tmp_path, capsys, lines, extra):
    # SCENE is 120 rows, so zone B needs line_out_y <= 118; such lines used to
    # give a truth of 0/0/0 with exit 0, and count now says the same as synth
    spec_path = write_scene(tmp_path, dict(SCENE, lines=lines))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x"), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not (tmp_path / "x").exists()
    out_dir = synth(tmp_path)
    capsys.readouterr()
    used = extra[1] if extra else ",".join(map(str, lines))
    code, out, err = run_count(capsys, "--input", str(out_dir), "--lines", used)
    assert (code, out, err) == (2, "", captured.err)
    assert "line_out_y must be <= 118" in err


def test_synth_eight_by_eight_truth(tmp_path, capsys):
    actors = []
    for wave in range(4):
        for lane in range(4):
            down = (wave + lane) % 2 == 0
            actors.append({
                "radius": 6,
                "start": [20.0 + 40.0 * lane, 10.0 if down else 110.0],
                "velocity": [0.0, 6.0 if down else -6.0],
                "spawn_frame": 10 + 30 * wave,
                "despawn_frame": 10 + 30 * wave + 18,
                "intensity": 220,
            })
    scene = {"width": 180, "height": 120, "frames": 160,
             "background_intensity": 50, "noise_amplitude": 0, "seed": 1,
             "lines": [40, 80], "actors": actors}
    out_dir = synth(tmp_path, scene=scene)
    capsys.readouterr()
    truth = json.loads((out_dir / "truth.json").read_text())
    assert truth == {"true_in": 8, "true_out": 8, "true_total": 16}
    assert len(list(out_dir.glob("*.pgm"))) == 160


def test_count_reports_scene_counts(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, err = run_count(capsys, "--input", str(out_dir),
                               "--truth", str(out_dir / "truth.json"), *COUNT_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert (doc["in"], doc["out"], doc["total"]) == (1, 1, 2)
    assert doc["in_accuracy"] == doc["out_accuracy"] == doc["tc_accuracy"] == 100.0
    assert doc["true_total"] == 2
    assert [e["direction"] for e in doc["events"]] == ["IN", "OUT"]


def test_count_without_truth_omits_accuracies(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, _ = run_count(capsys, "--input", str(out_dir), *COUNT_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert "in_accuracy" not in doc
    assert (doc["in"], doc["out"]) == (1, 1)


def test_count_is_byte_deterministic(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    args = ("--input", str(out_dir), "--truth", str(out_dir / "truth.json"),
            *COUNT_FLAGS)
    _, first, _ = run_count(capsys, *args)
    _, second, _ = run_count(capsys, *args)
    assert first == second


def test_count_empty_directory_is_io_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run_count(capsys, "--input", str(empty), *COUNT_FLAGS)
    assert code == 1
    assert "pgm" in err or "empty" in err


def test_count_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run_count(capsys, "--input", str(tmp_path / "nope"), *COUNT_FLAGS,
                             "--annotate", str(tmp_path / "ann"))
    assert code == 1
    assert "does not exist" in err
    assert not (tmp_path / "ann").exists()


def test_count_bad_line_order_is_config_error(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, _, err = run_count(capsys, "--input", str(out_dir), "--lines", "80,40")
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("annotate", [False, True])
def test_count_negative_line_is_config_error(tmp_path, capsys, annotate):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    ann_dir = tmp_path / "annotated"
    extra = ["--annotate", str(ann_dir)] if annotate else []
    code, out, err = run_count(capsys, "--input", str(out_dir), "--lines=-5,80",
                               "--warmup", "15", *extra)
    assert code == 2
    assert out == ""
    assert "line" in err
    assert not ann_dir.exists()


@pytest.mark.parametrize("lines", ["0,80", "40,119"])
def test_count_edge_line_is_config_error(tmp_path, capsys, lines):
    # SCENE is 120 rows: a line on row 0 leaves zone A empty, one on row 119
    # leaves zone B empty, and either way nothing could ever count; the first
    # frame shows it, before any debug frame is written
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, err = run_count(capsys, "--input", str(out_dir), "--lines", lines,
                               "--warmup", "15", "--annotate", str(tmp_path / "ann"))
    assert code == 2
    assert out == ""
    assert "line" in err
    assert not (tmp_path / "ann").exists()


def test_count_frame_of_another_size_names_the_frame(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    (out_dir / "000001.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
    code, out, err = run_count(capsys, "--input", str(out_dir), *COUNT_FLAGS)
    assert code == 2
    assert out == ""
    assert "frame 1 is 32x32, model is 160x120" in err


def test_count_requires_lines(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, _, err = run_count(capsys, "--input", str(out_dir))
    assert code == 2
    assert "lines" in err


def test_count_raw_input(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    raw = tmp_path / "frames.raw"
    with open(raw, "wb") as fh:
        for p in sorted(out_dir.glob("*.pgm")):
            fh.write(load_frame(p).pixels.tobytes())
    code, out, _ = run_count(capsys, "--input", str(raw), "--raw", "160x120",
                             *COUNT_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert (doc["in"], doc["out"], doc["total"]) == (1, 1, 2)


def test_count_annotate_writes_overlays(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    ann_dir = tmp_path / "annotated"
    code, _, _ = run_count(capsys, "--input", str(out_dir),
                           "--annotate", str(ann_dir), *COUNT_FLAGS)
    assert code == 0
    annotated = sorted(ann_dir.glob("*.pgm"))
    assert len(annotated) == 90
    img = load_frame(annotated[40]).pixels
    assert (img[40] == 255).all()
    assert (img[80] == 255).all()


def test_count_config_file_and_flag_override(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "warmup": 15, "alpha": 0.05}))
    code, out, _ = run_count(capsys, "--input", str(out_dir),
                             "--config", str(conf), "--threshold", "30")
    assert code == 0
    params = json.loads(out)["params"]
    assert params["alpha"] == 0.05       # from the config file
    assert params["threshold"] == 30.0   # flag overrides the default
    assert params["lines"] == [40, 80]


def test_count_unknown_config_key(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "sigma": 3}))
    code, _, err = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 2
    assert "sigma" in err


def test_count_config_boolean_must_be_json_boolean(tmp_path, capsys):
    # "false" is a non-empty string, so bool() would read it as true and
    # silently swap IN and OUT
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "warmup": 15,
                                "invert_direction": "false"}))
    code, out, err = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 2
    assert out == ""
    assert "invert_direction" in err


def test_count_config_json_boolean_accepted(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "warmup": 15,
                                "invert_direction": True}))
    code, out, _ = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["invert_direction"] is True
    assert [e["direction"] for e in doc["events"]] == ["OUT", "IN"]


@pytest.mark.parametrize("key,value", [
    ("min_area", "abc"), ("min_area", "80"), ("min_area", 80.5), ("min_area", True),
    ("max_area", "big"), ("warmup", [15]), ("alpha", "0.05"), ("alpha", False),
    ("max_match_dist", None), ("invert_direction", 0), ("invert_direction", "false"),
    ("lines", [40.5, 80]), ("lines", ["40", 80]), ("lines", [True, 80]),
])
def test_count_config_wrong_type_is_config_error(tmp_path, capsys, key, value):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "warmup": 15, key: value}))
    code, out, err = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 2
    assert out == ""
    assert key in err


def test_count_config_integer_for_float_key_accepted(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lines": [40, 80], "warmup": 15, "threshold": 30}))
    code, out, _ = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 0
    assert json.loads(out)["params"]["threshold"] == 30.0


# one value outside the valid range for every flag that takes a value, and
# the key its error names first, which is also its config field's name
OUT_OF_RANGE = [
    ("--alpha", "1", "alpha"),
    ("--threshold", "0", "threshold"),
    ("--warmup", "-1", "warmup"),
    ("--morph-radius", "-1", "morph_radius"),
    ("--connectivity", "5", "connectivity"),
    ("--min-area", "0", "min_area"),
    ("--max-area", "10", "max_area"),
    ("--min-circularity", "1.5", "min_circularity"),
    ("--min-convexity", "-0.1", "min_convexity"),
    ("--min-inertia", "2", "min_inertia"),
    ("--max-match-dist", "0", "max_match_dist"),
    ("--max-missed", "-1", "max_missed"),
]

# the defaults table in README.md, with lines 40,80
README_DEFAULTS = {
    "lines": [40, 80], "invert_direction": False, "alpha": 0.02,
    "threshold": 25.0, "warmup": 30, "morph_radius": 1, "connectivity": 8,
    "min_area": 80, "max_area": None, "min_circularity": 0.5,
    "min_convexity": 0.7, "min_inertia": 0.3, "max_match_dist": 50.0,
    "max_missed": 5,
}


def test_out_of_range_cases_cover_every_valued_key():
    valued = {key for key, (_, kind, _) in PARAMS.items() if kind is not bool}
    assert {key for _, _, key in OUT_OF_RANGE} == valued


@pytest.mark.parametrize("flag,value,key", OUT_OF_RANGE)
def test_count_out_of_range_flag_is_config_error(tmp_path, capsys, flag, value, key):
    # the input is an empty directory: a config that got through would exit 1
    code, out, err = run_count(capsys, "--input", str(tmp_path), "--lines", "40,80",
                               f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key} ")


def test_count_default_params_match_readme(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, _ = run_count(capsys, "--input", str(out_dir), "--lines", "40,80")
    assert code == 0
    params = json.loads(out)["params"]
    # compared as JSON text, so 25.0 and 25 differ
    assert json.dumps(params, sort_keys=True) == json.dumps(README_DEFAULTS,
                                                            sort_keys=True)


@pytest.mark.parametrize("flags", [
    ["--lines", "40,80"],
    ["--lines", "40,80", "--invert-direction", "--alpha", "0.03", "--threshold", "28",
     "--warmup", "15", "--morph-radius", "2", "--connectivity", "4",
     "--min-area", "60", "--max-area", "2000", "--min-circularity", "0.4",
     "--min-convexity", "0.6", "--min-inertia", "0.25", "--max-match-dist", "40",
     "--max-missed", "4"],
])
def test_count_report_params_as_config_reproduce_report(tmp_path, capsys, flags):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, first, _ = run_count(capsys, "--input", str(out_dir), *flags)
    assert code == 0
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(json.loads(first)["params"]))
    code, second, _ = run_count(capsys, "--input", str(out_dir), "--config", str(conf))
    assert code == 0
    assert second == first


@pytest.mark.parametrize("flag", ["--alpha", "--threshold", "--min-circularity",
                                  "--min-convexity", "--min-inertia",
                                  "--max-match-dist"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_count_non_finite_float_is_config_error(tmp_path, capsys, flag, value):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, err = run_count(capsys, "--input", str(out_dir), *COUNT_FLAGS,
                               f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("geometry", ["0x0", "0x120", "160x0", "-160x120"])
def test_count_raw_geometry_must_be_positive(tmp_path, capsys, geometry):
    raw = tmp_path / "frames.raw"
    raw.write_bytes(bytes(160 * 120))
    code, out, err = run_count(capsys, "--input", str(raw), f"--raw={geometry}",
                               "--annotate", str(tmp_path / "ann"), *COUNT_FLAGS)
    assert code == 2
    assert out == ""
    assert "geometry" in err
    assert not (tmp_path / "ann").exists()


@pytest.mark.parametrize("geometry", ["0x0", "7x7", "160x120"])
def test_count_raw_geometry_with_directory_input(tmp_path, capsys, geometry):
    # a directory holds PGM frames, which carry their own geometry; --raw
    # there was ignored, even when it matched the frames
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, err = run_count(capsys, "--input", str(out_dir), f"--raw={geometry}",
                               "--annotate", str(tmp_path / "ann"), *COUNT_FLAGS)
    assert code == 2
    assert out == ""
    assert "geometry" in err
    assert not (tmp_path / "ann").exists()


def test_count_stdout_is_single_json_document(tmp_path, capsys):
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, _ = run_count(capsys, "--input", str(out_dir), *COUNT_FLAGS)
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    json.loads(out)


def test_eval_accuracies(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"in": 20, "out": 25, "total": 45, "events": []}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 20, "true_out": 28, "true_total": 48}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["tc_accuracy"] == 93.75
    assert doc["in_accuracy"] == 100.0
    assert doc["out_accuracy"] == round(25 / 28 * 100, 2)


def test_eval_equal_counts_all_hundred(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"in": 9, "out": 12, "total": 21}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 9, "true_out": 12, "true_total": 21}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc == {"in_accuracy": 100.0, "out_accuracy": 100.0, "tc_accuracy": 100.0}


def test_eval_undefined_accuracy_is_config_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"in": 3, "out": 0, "total": 3}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 0, "true_out": 3, "true_total": 3}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    assert code == 2
    assert "0" in capsys.readouterr().err


def test_eval_schema_mismatch(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"inn": 3}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 1, "true_out": 0, "true_total": 1}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("report_doc", [
    {"in": -3, "out": 1, "total": -2},
    {"in": 3, "out": -1, "total": 2},
    {"in": 3, "out": 1, "total": 9},
    {"in": 3, "out": 1, "total": 3},
])
def test_eval_report_counts_must_be_consistent(tmp_path, capsys, report_doc):
    # these used to score as -100.0/-50.0, 225.0 and so on, with exit 0
    report = tmp_path / "report.json"
    report.write_text(json.dumps(report_doc))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 3, "true_out": 1, "true_total": 4}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "total == in + out" in captured.err


def test_eval_events_beyond_the_counts_are_config_error(tmp_path, capsys):
    # two identical OUT events in a report of one IN used to score 100.0 three times
    event = {"frame": 3, "track_id": 0, "direction": "OUT"}
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"in": 1, "out": 0, "total": 1, "events": [event, event]}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 1, "true_out": 0, "true_total": 1}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "events" in captured.err


LONG_KEY = json.dumps("k" * 4000)
# each kind of document with a key repeated, at the top level or nested: json
# alone keeps the last copy and reports nothing
REPEATED_KEYS = {
    "config": ("count", "--config", '{"lines": [40, 80], "alpha": 0.5, "alpha": 0.02}'),
    "config_long_key": ("count", "--config", f'{{{LONG_KEY}: 1, {LONG_KEY}: 2}}'),
    "truth": ("count", "--truth",
              '{"true_in": 1, "true_out": 0, "true_total": 1, "true_in": 1}'),
    "report": ("eval", "--report", '{"in": 1, "out": 0, "total": 1, "events": '
               '[{"frame": 3, "track_id": 0, "direction": "IN", "frame": 4}]}'),
    "scene_actor": ("synth", "--spec",
                    json.dumps(SCENE).replace('"radius": 8', '"radius": 8, "radius": 9', 1)),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_repeated_json_key_is_config_error(tmp_path, capsys, name):
    command, flag, text = REPEATED_KEYS[name]
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 1, "true_out": 0, "true_total": 1}))
    # count reads no frame from tmp_path: a document that got through would exit 1
    rest = {"count": ["--input", str(tmp_path), "--lines", "40,80"],
            "eval": ["--truth", str(truth)],
            "synth": ["--out", str(tmp_path / "out")]}[command]
    code = main([command, flag, str(doc), *rest])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "repeated key" in captured.err and len(captured.err) < 200
    assert not (tmp_path / "out").exists()


NON_INTEGER_TRUTHS = [
    {"true_in": "3", "true_out": 1, "true_total": 4},
    {"true_in": 3.5, "true_out": 0.5, "true_total": 4.0},
    {"true_in": 3, "true_out": True, "true_total": 4},
]


@pytest.mark.parametrize("truth_doc", NON_INTEGER_TRUTHS)
def test_count_truth_counts_must_be_json_integers(tmp_path, capsys, truth_doc):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(truth_doc))
    # the input is an empty directory: a truth that got through would exit 1
    code, out, err = run_count(capsys, "--input", str(tmp_path), "--lines", "40,80",
                               "--truth", str(truth))
    assert code == 2
    assert out == ""
    assert "true_" in err


def test_count_undefined_accuracy_prints_no_report(tmp_path, capsys):
    # the scene holds one IN and one OUT; against a truth of none the
    # accuracies are undefined, and the report is derived before printing
    out_dir = synth(tmp_path)
    capsys.readouterr()
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 0, "true_out": 0, "true_total": 0}))
    code, out, err = run_count(capsys, "--input", str(out_dir), "--truth", str(truth),
                               *COUNT_FLAGS)
    assert (code, out) == (2, "")
    assert "true count of 0" in err


@pytest.mark.parametrize("truth_doc", NON_INTEGER_TRUTHS)
def test_eval_truth_counts_must_be_json_integers(tmp_path, capsys, truth_doc):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"in": 3, "out": 1, "total": 4}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(truth_doc))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "true_" in captured.err


@pytest.mark.parametrize("report_doc", [
    {"in": 3.7, "out": True, "total": "4"},
    {"in": 3.7, "out": 1, "total": 4},
    {"in": 3, "out": True, "total": 4},
    {"in": 3, "out": 1, "total": "4"},
])
def test_eval_report_counts_must_be_json_integers(tmp_path, capsys, report_doc):
    # int() would read each of these as 3/1/4 and score 100.0
    report = tmp_path / "report.json"
    report.write_text(json.dumps(report_doc))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"true_in": 3, "true_out": 1, "true_total": 4}))
    code = main(["eval", "--report", str(report), "--truth", str(truth)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "integer" in captured.err


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--input", str(tmp_path), "--frobnicate"])
    assert exc.value.code == 2


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


LONG_VALUE_CASES = {
    # a 4000-digit integer still parses as JSON, so json_integer rejects it
    "truth_count": lambda tmp: [
        "eval", "--report", write_json(tmp / "r.json", {"in": 1, "out": 1, "total": 2}),
        "--truth", write_json(tmp / "t.json", {"true_in": int("9" * 4000),
                                               "true_out": 1, "true_total": 2})],
    "lines_flag": lambda tmp: ["count", "--input", str(tmp), "--lines", "9" * 5000 + ",5"],
    "raw_geometry": lambda tmp: ["count", "--input", str(tmp), "--lines", "1,5",
                                 "--raw", "9" * 5000 + "x5"],
    "config_integer": lambda tmp: [
        "count", "--input", str(tmp), "--lines", "1,5",
        "--config", write_json(tmp / "c.json", {"min_area": int("9" * 4000)})],
    "config_type": lambda tmp: [
        "count", "--input", str(tmp), "--lines", "1,5",
        "--config", write_json(tmp / "c.json", {"alpha": "a" * 5000})],
    "config_lines": lambda tmp: [
        "count", "--input", str(tmp),
        "--config", write_json(tmp / "c.json", {"lines": ["x" * 5000, 3]})],
    # 4000 digits parse as an integer, so the 64-bit bound must reject them
    "lines_flag_4000_digits": lambda tmp: ["count", "--input", str(tmp),
                                           "--lines", "1," + "9" * 4000],
    "synth_lines_flag": lambda tmp: [
        "synth", "--out", str(tmp / "out"), "--spec", write_json(tmp / "s.json", SCENE),
        "--lines", "1," + "9" * 4000],
    "config_lines_integer": lambda tmp: [
        "count", "--input", str(tmp),
        "--config", write_json(tmp / "c.json", {"lines": [1, int("9" * 30)]})],
    "spec_actor": lambda tmp: [
        "synth", "--out", str(tmp / "out"), "--spec", write_json(tmp / "s.json", {
            **SCENE, "actors": [{**SCENE["actors"][0], "start": ["x" * 5000, 1.0]}]})],
}


@pytest.mark.parametrize("case", sorted(LONG_VALUE_CASES))
def test_long_rejected_value_is_quoted_in_part(tmp_path, capsys, case):
    code = main(LONG_VALUE_CASES[case](tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "... (" in captured.err
    assert len(captured.err.encode()) < 200


def count_report(tmp_path, capsys):
    """The frames of SCENE and the report ``count --truth`` writes for them."""
    out_dir = synth(tmp_path)
    capsys.readouterr()
    code, out, _ = run_count(capsys, "--input", str(out_dir), "--truth",
                             str(out_dir / "truth.json"), *COUNT_FLAGS)
    assert code == 0
    return out_dir, json.loads(out)


def misspelled(doc, old, new):
    return {new if key == old else key: value for key, value in doc.items()}


# a misspelled key in either eval document, which eval used to drop unread:
# the document it is in, how to misspell it, and the misspelled key
MISSPELLINGS = {
    "report_key": ("report", lambda doc: misspelled(doc, "tc_accuracy", "tc_acuracy"),
                   "tc_acuracy"),
    "event_key": ("report", lambda doc: dict(doc, events=[
        misspelled(doc["events"][0], "frame", "frme")]), "frme"),
    "params_key": ("report", lambda doc: dict(doc, params=misspelled(
        doc["params"], "alpha", "alpah")), "alpah"),
    "truth_key": ("truth", lambda doc: dict(doc, true_totl=7), "true_totl"),
}


@pytest.mark.parametrize("case", sorted(MISSPELLINGS))
def test_eval_rejects_misspelled_keys(tmp_path, capsys, case):
    out_dir, report = count_report(tmp_path, capsys)
    docs = {"report": report, "truth": json.loads((out_dir / "truth.json").read_text())}
    which, change, key = MISSPELLINGS[case]
    docs[which] = change(docs[which])
    paths = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}
    code = main(["eval", "--report", paths["report"], "--truth", paths["truth"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert key in captured.err and f"{which}.json" in captured.err


def test_report_reads_as_truth(tmp_path, capsys):
    # count --truth and eval --truth may be handed a report with its truth
    out_dir, report = count_report(tmp_path, capsys)
    path = write_json(tmp_path / "report.json", report)
    assert main(["eval", "--report", path, "--truth", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "in_accuracy": 100.0, "out_accuracy": 100.0, "tc_accuracy": 100.0}
    code, out, _ = run_count(capsys, "--input", str(out_dir), "--truth", path, *COUNT_FLAGS)
    assert code == 0
    assert json.loads(out) == report


# a truth document that holds report keys must be a report as eval reads it:
# how to break the report count writes, and what the error must name
BAD_TRUTH_REPORTS = {
    "garbage": (lambda doc: {"true_in": 1, "true_out": 0, "true_total": 1,
                             "in": "garbage", "events": "x", "params": {"alpah": 1}},
                "missing keys ['out', 'total']"),
    "params_key": (lambda doc: dict(doc, params=misspelled(doc["params"], "alpha",
                                                           "alpah")), "alpah"),
    "negative_event_frame": (lambda doc: dict(doc, events=[
        dict(doc["events"][0], frame=-5)]), "frame"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRUTH_REPORTS))
def test_truth_with_an_invalid_report_is_config_error(tmp_path, capsys, case):
    out_dir, report = count_report(tmp_path, capsys)
    change, key = BAD_TRUTH_REPORTS[case]
    truth = write_json(tmp_path / "truth.json", change(report))
    report_path = write_json(tmp_path / "report.json", report)
    (tmp_path / "empty").mkdir()
    # the input is an empty directory: a truth that got through would exit 1
    for argv in (["eval", "--report", report_path, "--truth", truth],
                 ["count", "--input", str(tmp_path / "empty"), "--truth", truth,
                  *COUNT_FLAGS]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert key in captured.err and "truth.json" in captured.err


def test_count_empty_raw_file_is_io_error(tmp_path, capsys):
    raw = tmp_path / "empty.raw"
    raw.write_bytes(b"")
    code, out, err = run_count(capsys, "--input", str(raw), "--raw", "8x8",
                               "--lines", "2,5")
    assert code == 1
    assert out == ""
    assert "holds no complete frames" in err
