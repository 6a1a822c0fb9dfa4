import json
import math

import pytest

from headcount import (CountReport, Counters, CrossEvent, Direction, GroundTruth,
                       accuracy_pct)
from headcount.cli import main
from headcount.errors import ConfigError, UndefinedAccuracy


def test_accuracy_exact_match_rows():
    # the consistent published cells are exact ratios
    assert accuracy_pct(8, 8) == 100.0
    assert accuracy_pct(9, 9) == 100.0
    assert accuracy_pct(12, 12) == 100.0
    assert accuracy_pct(21, 21) == 100.0
    assert accuracy_pct(16, 16) == 100.0


def test_accuracy_forty_five_of_forty_eight():
    value = accuracy_pct(45, 48)
    assert value == 93.75
    assert round(value) == 94
    assert math.floor(value) == 93


def test_accuracy_zero_count():
    assert accuracy_pct(0, 5) == 0.0


def test_accuracy_overcount_exceeds_hundred():
    assert accuracy_pct(25, 20) == 125.0


def test_accuracy_both_zero_is_perfect():
    assert accuracy_pct(0, 0) == 100.0


def test_accuracy_undefined():
    with pytest.raises(UndefinedAccuracy):
        accuracy_pct(3, 0)


@pytest.mark.parametrize("count,true_count", [(10**400, 1), (10**307, 1)])
def test_accuracy_beyond_float_range_is_undefined(count, true_count):
    # the first quotient overflows int / int, the second only its * 100
    with pytest.raises(UndefinedAccuracy):
        accuracy_pct(count, true_count)
    assert accuracy_pct(count, count) == 100.0


def test_accuracy_negative_truth_rejected():
    with pytest.raises(ConfigError):
        accuracy_pct(3, -1)


def test_accuracy_identity_for_all_counts():
    for x in range(1, 51):
        assert accuracy_pct(x, x) == 100.0


def test_accuracy_scale_invariant():
    for a, b in ((1, 3), (7, 9), (13, 48), (5, 7)):
        for k in (2, 3, 10):
            assert accuracy_pct(k * a, k * b) == accuracy_pct(a, b)


def test_ground_truth_sum_enforced():
    with pytest.raises(ConfigError):
        GroundTruth(3, 4, 8)
    with pytest.raises(ConfigError):
        GroundTruth(-1, 1, 0)


def test_report_without_truth_has_no_accuracy_keys():
    report = CountReport(Counters(), [], params={"alpha": 0.02})
    doc = report.to_dict()
    assert doc["in"] == doc["out"] == doc["total"] == 0
    for key in ("true_in", "true_out", "true_total",
                "in_accuracy", "out_accuracy", "tc_accuracy"):
        assert key not in doc


def test_report_accuracies_table_row_two():
    counters = Counters(in_count=9, out_count=12)
    report = CountReport(counters, [], GroundTruth(9, 12, 21))
    assert report.accuracies() == {"in_accuracy": 100.0, "out_accuracy": 100.0,
                                   "tc_accuracy": 100.0}


def test_report_overcount_representable():
    counters = Counters(in_count=25, out_count=28)
    report = CountReport(counters, [], GroundTruth(20, 28, 48))
    assert report.accuracies() == {"in_accuracy": 125.0, "out_accuracy": 100.0,
                                   "tc_accuracy": pytest.approx(53 / 48 * 100)}


def test_report_propagates_undefined_accuracy():
    counters = Counters(in_count=3, out_count=0)
    report = CountReport(counters, [], GroundTruth(0, 3, 3))
    with pytest.raises(UndefinedAccuracy):
        report.to_json()


def test_report_json_schema_keys():
    counters = Counters(in_count=1, out_count=2)
    events = [CrossEvent(40, 0, Direction.IN), CrossEvent(55, 1, Direction.OUT)]
    report = CountReport(counters, events, GroundTruth(1, 2, 3), {"warmup": 30})
    doc = json.loads(report.to_json())
    assert set(doc) == {"in", "out", "total", "true_in", "true_out", "true_total",
                        "in_accuracy", "out_accuracy", "tc_accuracy",
                        "events", "params"}
    assert doc["events"][0] == {"frame": 40, "track_id": 0, "direction": "IN"}
    assert doc["params"] == {"warmup": 30}


def test_report_round_trips_losslessly():
    counters = Counters(in_count=45, out_count=3)
    events = [CrossEvent(12, 4, Direction.IN), CrossEvent(19, 5, Direction.OUT)]
    report = CountReport(counters, events, GroundTruth(48, 3, 51),
                         {"alpha": 0.02, "lines": [100, 140]})
    reparsed = CountReport.from_dict(json.loads(report.to_json()))
    assert reparsed.to_dict() == report.to_dict()
    assert reparsed.counters == report.counters
    assert reparsed.events == report.events
    assert reparsed.ground_truth == report.ground_truth
    assert reparsed.accuracies() == report.accuracies()


def report_doc(**changes):
    """A report document as ``count --truth`` writes it, with ``changes``."""
    counters, truth = Counters(in_count=3, out_count=1), GroundTruth(3, 2, 5)
    events = [CrossEvent(12, 0, Direction.IN), CrossEvent(19, 1, Direction.OUT)]
    doc = CountReport(counters, events, truth, {"warmup": 30}).to_dict()
    return {**doc, **changes}


def without(doc, *keys):
    return {key: value for key, value in doc.items() if key not in keys}


BAD_REPORTS = {
    # the stored total disagrees with in + out
    "total_not_in_plus_out": {"in": 1, "out": 1, "total": 5, "events": []},
    "not_json_integers": {"in": "3", "out": True, "total": 4, "events": []},
    "float_count": {"in": 3.0, "out": 1, "total": 4},
    "negative_count": {"in": -1, "out": 1, "total": 0},
    "beyond_64_bits": {"in": 2**63, "out": 0, "total": 2**63},
    "missing_total": {"in": 3, "out": 1},
    "stale_accuracy": report_doc(in_accuracy=55.0),
    "accuracy_without_truth": without(report_doc(), "true_in", "true_out", "true_total"),
    "truth_without_accuracies": without(report_doc(), "in_accuracy", "out_accuracy",
                                        "tc_accuracy"),
    "partial_truth": without(report_doc(), "true_out"),
    "truth_not_in_plus_out": report_doc(true_total=6),
    "unknown_direction": report_doc(events=[{"frame": 3, "track_id": 0,
                                             "direction": "UP"}]),
    "event_not_an_object": report_doc(events=[["IN", 3, 0]]),
    "event_frame_not_an_integer": report_doc(events=[{"frame": 3.5, "track_id": 0,
                                                      "direction": "IN"}]),
    "event_negative_frame": report_doc(events=[{"frame": -5, "track_id": 0,
                                                "direction": "IN"}]),
    "event_negative_track_id": report_doc(events=[{"frame": 3, "track_id": -2,
                                                   "direction": "IN"}]),
    "events_not_a_list": report_doc(events={"frame": 3}),
    "params_not_an_object": report_doc(params=[1, 2]),
    # a misspelled key, with and without truth
    "unknown_key": {"in": 1, "out": 0, "total": 1, "evnts": []},
    "unknown_key_with_truth": report_doc(tc_acuracy=100.0),
    "unknown_event_key": report_doc(events=[{"frame": 3, "track_id": 0,
                                             "direction": "IN", "frme": 3}]),
    # the events tally more OUT than the report counts
    "more_events_than_counts": {"in": 1, "out": 0, "total": 1, "events": [
        {"frame": 3, "track_id": 0, "direction": "OUT"},
        {"frame": 4, "track_id": 0, "direction": "OUT"}]},
    # a track is advanced once per frame, so it scores at most once per frame
    "events_share_frame_and_track": {"in": 2, "out": 0, "total": 2, "events": [
        {"frame": 3, "track_id": 0, "direction": "IN"},
        {"frame": 3, "track_id": 0, "direction": "IN"}]},
}


@pytest.mark.parametrize("name", sorted(BAD_REPORTS))
def test_report_from_dict_rejects_inconsistent_documents(name):
    with pytest.raises(ConfigError):
        CountReport.from_dict(BAD_REPORTS[name])


@pytest.mark.parametrize("truth", [GroundTruth(48, 3, 51), None], ids=["truth", "no_truth"])
def test_report_from_dict_inverts_to_dict(truth):
    events = [CrossEvent(12, 4, Direction.IN), CrossEvent(19, 5, Direction.OUT)]
    report = CountReport(Counters(in_count=45, out_count=3), events, truth,
                         {"alpha": 0.02, "lines": [100, 140]})
    doc = json.loads(report.to_json())
    assert CountReport.from_dict(doc) == report
    assert CountReport.from_dict(doc).to_dict() == doc


def test_report_events_and_params_may_be_absent():
    report = CountReport.from_dict({"in": 3, "out": 1, "total": 4})
    assert report == CountReport(Counters(in_count=3, out_count=1))


def test_ground_truth_document_round_trip():
    truth = GroundTruth(8, 7, 15)
    assert truth.to_dict() == {"true_in": 8, "true_out": 7, "true_total": 15}
    assert GroundTruth.from_dict(truth.to_dict()) == truth
    # a report holding its truth reads as that truth
    assert GroundTruth.from_dict(report_doc()) == GroundTruth(3, 2, 5)


TRUTH = {"true_in": 1, "true_out": 0, "true_total": 1}
# a truth document that holds any other report key must be a valid report:
# every bad report above that holds a truth, and truths with a bad report part
BAD_REPORTS_AS_TRUTH = {
    **{name: doc for name, doc in BAD_REPORTS.items() if set(TRUTH) <= set(doc)},
    "garbage_report_keys": {**TRUTH, "in": "garbage", "events": "x",
                            "params": {"alpah": 1}},
    "events_without_counts": {**TRUTH, "events": []},
    "accuracy_without_counts": {**TRUTH, "in_accuracy": 100.0},
}


@pytest.mark.parametrize("name", sorted(BAD_REPORTS_AS_TRUTH))
def test_ground_truth_from_dict_rejects_an_invalid_report(name):
    with pytest.raises(ConfigError):
        GroundTruth.from_dict(BAD_REPORTS_AS_TRUTH[name])


@pytest.mark.parametrize("doc", [
    {"true_in": 1, "true_out": 1, "true_total": 5},
    {"true_in": 1, "true_out": 1},
    {"true_in": 1, "true_out": False, "true_total": 1},
    {"true_in": -1, "true_out": 2, "true_total": 1},
    {"true_in": 1, "true_out": 1, "true_total": 2, "true_totl": 2},
])
def test_ground_truth_from_dict_rejects_bad_counts(doc):
    with pytest.raises(ConfigError, match="true_"):
        GroundTruth.from_dict(doc)


def test_counters_derive_their_total():
    counters = Counters(in_count=2, out_count=5)
    assert counters.total_count == 7
    with pytest.raises(AttributeError):
        counters.total_count = 9


def test_eval_reads_a_report_written_by_count(tmp_path, capsys):
    # count writes accuracies against one truth (33.33...%, not exactly
    # representable), eval reads the report back and scores it against
    # another; stdout is pinned byte for byte
    scene = {"width": 96, "height": 96, "frames": 40, "background_intensity": 50,
             "noise_amplitude": 3, "seed": 5, "lines": [30, 60], "actors": [
                 {"radius": 7, "start": [30.0, 8.0], "velocity": [0.0, 5.0],
                  "spawn_frame": 10, "despawn_frame": 28, "intensity": 220},
                 {"radius": 7, "start": [70.0, 88.0], "velocity": [0.0, -5.0],
                  "spawn_frame": 12, "despawn_frame": 30, "intensity": 220}]}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    (tmp_path / "t1.json").write_text(json.dumps({"true_in": 3, "true_out": 1,
                                                  "true_total": 4}))
    (tmp_path / "t2.json").write_text(json.dumps({"true_in": 3, "true_out": 7,
                                                  "true_total": 10}))
    frames, report = str(tmp_path / "frames"), tmp_path / "report.json"
    assert main(["synth", "--spec", str(tmp_path / "scene.json"), "--out", frames]) == 0
    capsys.readouterr()
    assert main(["count", "--input", frames, "--lines", "30,60", "--warmup", "5",
                 "--truth", str(tmp_path / "t1.json")]) == 0
    report.write_text(capsys.readouterr().out)
    assert json.loads(report.read_text())["in_accuracy"] == 1 / 3 * 100
    assert main(["eval", "--report", str(report), "--truth", str(tmp_path / "t2.json")]) == 0
    assert capsys.readouterr().out == ('{"in_accuracy": 33.33, "out_accuracy": 14.29, '
                                       '"tc_accuracy": 20.0}\n')
